//go:build race

package journal

func init() { raceEnabled = true }
