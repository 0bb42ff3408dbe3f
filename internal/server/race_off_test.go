//go:build !race

package server

const raceDetector = false
