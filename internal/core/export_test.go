package core

// RandomInstance lends the package's mixed-family test instances to the
// external core_test package, whose tests compare against oracles in
// internal/check (which imports core, so they cannot live in package core).
var RandomInstance = randomInstance
