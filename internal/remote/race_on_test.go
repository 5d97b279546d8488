//go:build race

package remote_test

// raceBuild reports that the race detector is active; allocation-count
// assertions are skipped, since instrumentation allocates.
const raceBuild = true
