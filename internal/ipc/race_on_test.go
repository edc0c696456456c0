//go:build race

package ipc

// raceDetector reports whether the tests were built with -race.
const raceDetector = true
