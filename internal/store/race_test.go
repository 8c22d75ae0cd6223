//go:build race

package store

// raceDetector reports a -race build, whose sync.Pool drops pooled
// buffers at random, so allocation measurements do not hold.
const raceDetector = true
