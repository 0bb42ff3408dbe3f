//go:build !race

package colstore

const raceDetector = false
