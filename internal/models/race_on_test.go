//go:build race

package models

const raceEnabled = true
