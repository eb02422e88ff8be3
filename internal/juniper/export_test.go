package juniper

// SampleJunos exposes the test fixture to the external test package.
const SampleJunos = sampleJunos

// QuotedNameConfigs exposes the configurations whose names need quoting.
var QuotedNameConfigs = quotedNameConfigs

// ASPathConfigs exposes the configurations whose as-path regexes hold
// characters Go's %q escapes.
var ASPathConfigs = asPathConfigs

// DotUnitConfigs exposes the configurations whose unit names hold a dot.
var DotUnitConfigs = dotUnitConfigs
