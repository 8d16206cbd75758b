//go:build !race

package service

// raceEnabled mirrors race_test.go for normal builds.
const raceEnabled = false
