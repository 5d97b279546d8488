//go:build race

package wire

// raceBuild reports that the race detector is active; allocation-count
// assertions are skipped, since instrumentation allocates.
const raceBuild = true
