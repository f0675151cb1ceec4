package tableio

import (
	"strings"
	"testing"
)

func TestASCIIAlignment(t *testing.T) {
	tb := New("Demo", "beta", "ratio")
	tb.AddRow("1", "0.99")
	tb.AddRow("15", "1.2345")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "Demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "beta") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "----") {
		t.Errorf("rule = %q", lines[2])
	}
	// Columns align: "ratio" starts at the same offset in all rows.
	idx := strings.Index(lines[1], "ratio")
	if !strings.HasPrefix(lines[3][idx:], "0.99") {
		t.Errorf("row 1 misaligned: %q", lines[3])
	}
	if !strings.HasPrefix(lines[4][idx:], "1.2345") {
		t.Errorf("row 2 misaligned: %q", lines[4])
	}
}

func TestNoTitle(t *testing.T) {
	tb := New("", "a")
	tb.AddRow("x")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("empty title should not emit a blank line")
	}
}

func TestAddRowPanicsOnWidthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on row width mismatch")
		}
	}()
	New("t", "a", "b").AddRow("only one")
}

func TestCSV(t *testing.T) {
	tb := New("ignored", "a", "b")
	tb.AddRow("1", "plain")
	tb.AddRow("2", `has "quotes", commas`)
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "a,b\n1,plain\n2,\"has \"\"quotes\"\", commas\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		prec int
		want string
	}{
		{5, 2, "5"},
		{5.5, 2, "5.50"},
		{0.125, 3, "0.125"},
		{-3, 1, "-3"},
	}
	for _, tc := range cases {
		if got := FormatFloat(tc.v, tc.prec); got != tc.want {
			t.Errorf("FormatFloat(%v, %d) = %q, want %q", tc.v, tc.prec, got, tc.want)
		}
	}
}
