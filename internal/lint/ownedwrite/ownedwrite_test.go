package ownedwrite_test

import (
	"testing"

	"csaw/internal/lint/linttest"
	"csaw/internal/lint/ownedwrite"
)

func TestOwnedwrite(t *testing.T) {
	linttest.Run(t, ownedwrite.Analyzer, "testdata", "a", nil)
}

func TestOwnedwriteClean(t *testing.T) {
	linttest.RunClean(t, ownedwrite.Analyzer, "testdata", "clean", nil)
}
