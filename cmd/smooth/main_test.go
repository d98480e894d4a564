package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpegsmooth"
)

func TestRunBuiltinSequence(t *testing.T) {
	if err := run("", "driving1", 54, 1, 1, 0, 0.2, "basic", false, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunMovingVariantWithCompare(t *testing.T) {
	if err := run("", "backyard", 48, 1, 1, 12, 0.2, "moving", true, true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunPolicyFlag(t *testing.T) {
	// Every grammar form runs end to end.
	for _, policy := range []string{"basic", "moving-average", "min-var", "capped:1e9"} {
		if err := run("", "tennis", 27, 1, 1, 9, 0.2, policy, false, false, ""); err != nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
	}
}

func TestRunBindingCapReportsViolations(t *testing.T) {
	// A cap far below the mean rate forces delay-bound violations; the
	// command must report them instead of failing.
	if err := run("", "driving1", 54, 1, 1, 9, 0.2, "capped:1e5", false, false, ""); err != nil {
		t.Fatalf("binding cap should report, not fail: %v", err)
	}
}

func TestRunFromFile(t *testing.T) {
	tr, err := mpegsmooth.Tennis(27, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run(path, "", 0, 0, 1, 9, 0.2, "basic", false, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesScheduleCSV(t *testing.T) {
	for _, policy := range []string{"basic", "moving-average"} {
		out := filepath.Join(t.TempDir(), "sched.csv")
		if err := run("", "tennis", 27, 1, 1, 9, 0.2, policy, false, false, out); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		meta, _, _ := strings.Cut(string(data), "\n")
		if !strings.HasSuffix(meta, " policy="+policy) {
			t.Fatalf("-policy %s wrote metadata line %q", policy, meta)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run("x.csv", "driving1", 10, 1, 1, 9, 0.2, "basic", false, false, ""); err == nil {
		t.Fatal("-in and -seq together should fail")
	}
	if err := run("", "", 10, 1, 1, 9, 0.2, "basic", false, false, ""); err == nil {
		t.Fatal("neither -in nor -seq should fail")
	}
	if err := run("", "driving1", 54, 1, 1, 9, 0.2, "fastest", false, false, ""); err == nil {
		t.Fatal("unknown policy should fail")
	}
	if err := run("", "driving1", 54, 1, 1, 9, 0.2, "capped:-2", false, false, ""); err == nil {
		t.Fatal("negative cap should fail")
	}
	if err := run("", "driving1", 54, 1, 1, 9, -0.5, "basic", false, false, ""); err == nil {
		t.Fatal("negative D should fail")
	}
	if err := run("/nonexistent/x.csv", "", 0, 0, 1, 9, 0.2, "basic", false, false, ""); err == nil {
		t.Fatal("missing file should fail")
	}
}
