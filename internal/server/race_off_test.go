//go:build !race

package server

const raceBuild = false
