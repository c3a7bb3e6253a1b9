//go:build race

package hsp

func init() { raceEnabled = true }
