//go:build race

package service

// raceEnabled lets tests that measure allocation volume skip themselves
// under the race detector, which changes what every access allocates.
const raceEnabled = true
