//go:build !race

package remote_test

const raceBuild = false
