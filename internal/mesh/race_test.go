//go:build race

package mesh

func init() { raceEnabled = true }
