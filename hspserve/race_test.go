//go:build race

package hspserve_test

func init() { raceEnabled = true }
