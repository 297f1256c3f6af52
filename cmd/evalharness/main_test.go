package main

import (
	"strings"
	"testing"
)

func rowNames(exps []experiment) string {
	var out []string
	for _, e := range exps {
		out = append(out, e.name)
	}
	return strings.Join(out, ",")
}

// TestSelectResolvesEveryName: each canonical name resolves to its own
// row, in any case and with surrounding spaces.
func TestSelectResolvesEveryName(t *testing.T) {
	for _, e := range experiments {
		for _, arg := range []string{e.name, strings.ToLower(e.name), " " + e.name + " "} {
			got, err := selectExperiments(arg, false)
			if err != nil || rowNames(got) != e.name {
				t.Errorf("select %q = %q, %v; want %s", arg, rowNames(got), err, e.name)
			}
		}
	}
	got, err := selectExperiments("e13,E1,e17", false)
	if err != nil || rowNames(got) != "E13,E1,E17" {
		t.Fatalf("select list = %q, %v; want the list order", rowNames(got), err)
	}
}

// TestSelectRefusesUnknownAndEmptyNames: a typo or a trailing comma
// must fail before anything runs.
func TestSelectRefusesUnknownAndEmptyNames(t *testing.T) {
	for _, arg := range []string{"E18", "E1,", ",E1", "", "E1,,E2", "all,E1"} {
		if got, err := selectExperiments(arg, false); err == nil {
			t.Errorf("select %q = %q, want an error", arg, rowNames(got))
		}
	}
}

// TestSelectAll: "all" is the canonical order in text mode; with -json
// it is the experiments that have a JSON result, E10–E17. A text-only
// experiment named explicitly with -json is refused.
func TestSelectAll(t *testing.T) {
	got, err := selectExperiments("all", false)
	if err != nil || rowNames(got) != "E1,E2,E3,E4,E5,E6,E7,E8,E9,E10,E11,E12,E13,E14,E15,E16,E17" {
		t.Fatalf("select all = %q, %v", rowNames(got), err)
	}
	got, err = selectExperiments("ALL", true)
	if err != nil || rowNames(got) != "E10,E11,E12,E13,E14,E15,E16,E17" {
		t.Fatalf("select all -json = %q, %v; want E10..E17", rowNames(got), err)
	}
	if _, err := selectExperiments("E13,E1", true); err == nil || !strings.Contains(err.Error(), "E1 does not support -json") {
		t.Fatalf("select E13,E1 -json: err = %v, want E1 refused", err)
	}
}
