//go:build !race

package consistency

// raceDetector is whether the race detector is on.
const raceDetector = false
