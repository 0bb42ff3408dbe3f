//go:build !race

package sqlexec

const raceDetector = false
