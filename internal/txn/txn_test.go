package txn

import (
	"testing"

	"pmemlog/internal/nvlog"
)

func TestSpecTable(t *testing.T) {
	cases := []struct {
		mode       Mode
		name       string
		persistent bool
	}{
		{NonPers, "non-pers", false},
		{SWUndo, "sw-ulog", false},
		{SWRedo, "sw-rlog", false},
		{SWUndoClwb, "undo-clwb", true},
		{SWRedoClwb, "redo-clwb", true},
		{HWUnsafe, "hw-unsafe", false},
		{HWL, "hwl", true},
		{FWB, "fwb", true},
	}
	for _, c := range cases {
		s := c.mode.Spec()
		if s.Name != c.name {
			t.Errorf("%v name = %q, want %q", c.mode, s.Name, c.name)
		}
		if s.Persistent != c.persistent {
			t.Errorf("%s persistent = %v, want %v", c.name, s.Persistent, c.persistent)
		}
		if c.mode.String() != c.name {
			t.Errorf("String() mismatch for %s", c.name)
		}
	}
}

func TestSpecInvariants(t *testing.T) {
	for _, m := range AllModes() {
		s := m.Spec()
		if s.SWLog && s.HWLog {
			t.Errorf("%s uses both software and hardware logging", s.Name)
		}
		if s.UseFWB && s.ClwbAtCommit {
			t.Errorf("%s uses both FWB and clwb (FWB replaces clwb)", s.Name)
		}
		if s.FencePerStore && s.SWStyle != nvlog.RedoOnly {
			t.Errorf("%s has a per-store fence but is not redo logging", s.Name)
		}
	}
	// The paper's full design: hardware undo+redo + FWB, no clwb.
	f := FWB.Spec()
	if !f.HWLog || !f.UseFWB || !f.Persistent {
		t.Errorf("fwb spec wrong: %+v", f)
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range AllModes() {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode parsed")
	}
}

func TestWriteSet(t *testing.T) {
	w := NewWriteSet()
	w.Add(0x100)
	w.Add(0x108) // same line
	w.Add(0x140) // next line
	if w.Size() != 2 {
		t.Fatalf("size = %d, want 2", w.Size())
	}
	lines := w.Lines()
	if lines[0] != 0x100 || lines[1] != 0x140 {
		t.Errorf("lines = %v (order must be first-write)", lines)
	}
	w.Reset()
	if w.Size() != 0 {
		t.Error("reset left lines")
	}
	w.Add(0x200)
	if w.Size() != 1 {
		t.Error("write set unusable after reset")
	}
}

func TestCostConstantsSane(t *testing.T) {
	// Undo logging costs more instructions than redo (it must also read
	// the old value), and a compact record is 4 word stores.
	if SWUndoInstrPerStore <= SWRedoInstrPerStore {
		t.Error("undo logging should cost more than redo")
	}
	if SWLogStoresPerRecord != 4 {
		t.Errorf("SWLogStoresPerRecord = %d, want 4", SWLogStoresPerRecord)
	}
}
