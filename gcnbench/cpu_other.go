//go:build !amd64

package main

// cpuFeatures reports no features off amd64, where the benchmark does
// not probe the CPU.
func cpuFeatures() []string { return nil }
