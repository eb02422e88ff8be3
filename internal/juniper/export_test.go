package juniper

// SampleJunos exposes the test fixture to the external test package.
const SampleJunos = sampleJunos
