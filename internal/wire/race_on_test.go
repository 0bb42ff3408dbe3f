//go:build race

package wire

// raceDetector reports a -race build, under which sync.Pool drops a quarter
// of what is put back and allocation pins mean nothing.
const raceDetector = true
