//go:build race

package server

// raceBuild reports that the race detector is active; allocation-count and
// heap-size assertions are skipped, since instrumentation allocates.
const raceBuild = true
