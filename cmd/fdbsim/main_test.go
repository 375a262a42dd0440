package main

import (
	"strings"
	"testing"
)

func TestRunFigures(t *testing.T) {
	// Each figure must run to completion (stdout goes to the test log).
	for _, fig := range []string{"2.1", "2.2", "2.3", "3.1"} {
		if err := run([]string{"-figure", fig}); err != nil {
			t.Errorf("figure %s: %v", fig, err)
		}
	}
}

func TestRunFigureDOT(t *testing.T) {
	if err := run([]string{"-figure", "2.1", "-dot"}); err != nil {
		t.Error(err)
	}
}

func TestRunSingleTable(t *testing.T) {
	if err := run([]string{"-table", "2", "-seed", "7"}); err != nil {
		t.Error(err)
	}
}

func TestRunCompareMode(t *testing.T) {
	for _, table := range []string{"1", "2", "3"} {
		if err := run([]string{"-table", table, "-compare"}); err != nil {
			t.Errorf("table %s compare: %v", table, err)
		}
	}
}

func TestRunAblations(t *testing.T) {
	if err := run([]string{"-ablations"}); err != nil {
		t.Error(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-table", "4"}); err == nil || !strings.Contains(err.Error(), "1, 2, 3 or all") {
		t.Errorf("-table 4: err = %v, want one naming the valid tables", err)
	}
	if err := run([]string{"-figure", "9.9"}); err == nil || !strings.Contains(err.Error(), "2.1, 2.2, 2.3, 3.1 or all") {
		t.Errorf("-figure 9.9: err = %v, want one naming the valid figures", err)
	}
}
