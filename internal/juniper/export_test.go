package juniper

// SampleJunos exposes the test fixture to the external test package.
const SampleJunos = sampleJunos

// QuotedNameConfigs exposes the configurations whose names need quoting.
var QuotedNameConfigs = quotedNameConfigs
