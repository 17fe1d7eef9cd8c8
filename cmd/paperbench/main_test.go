package main

import "testing"

func TestRunFigures(t *testing.T) {
	// The fast artifacts; the full set runs in TestRunAllSmall below.
	for _, fig := range []int{1, 3, 7, 8} {
		if err := runFigure(fig, 30); err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
	}
	if err := runFigure(99, 10); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunTables(t *testing.T) {
	if err := runTable("1a", 30, 3, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := runTable("1b", 30, 3, 0, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := runTable("1m", 30, 2, 2, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := runTable("1g", 20, 2, 1, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := runTable("1c", 20, 2, 0, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := runTable("1ad", 20, 2, 1, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := runTable("2x", 30, 3, 0, 0, false); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestRunSweep(t *testing.T) {
	if err := runSweep(20, 4); err != nil {
		t.Fatal(err)
	}
}

func TestRunAblationsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	if err := runAblations(30); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full paperbench in -short mode")
	}
	if err := runAll(20, 2, 0); err != nil {
		t.Fatal(err)
	}
}
