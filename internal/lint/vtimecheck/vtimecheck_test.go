package vtimecheck_test

import (
	"testing"

	"csaw/internal/lint/analysis"
	"csaw/internal/lint/linttest"
	"csaw/internal/lint/vtimecheck"
)

func TestVtimecheck(t *testing.T) {
	linttest.Run(t, vtimecheck.Analyzer, "testdata", "a", nil)
}

func TestVtimecheckClean(t *testing.T) {
	linttest.RunClean(t, vtimecheck.Analyzer, "testdata", "clean", nil)
}

func TestVtimecheckAllowlist(t *testing.T) {
	cfg := &analysis.Config{
		ModuleRoot: "testdata/src",
		Allow:      map[string][]string{"vtimecheck": {"allowed/"}},
	}
	linttest.Run(t, vtimecheck.Analyzer, "testdata", "allowed", cfg)
}
