package ir

import (
	"errors"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	orig := mustBuild(t, NewAsm("roundtrip").
		Emit(MovI, 4, -7).
		Label("head").
		Emit(AddI, 4, 1).
		Emit(CmpI, 4, 9).
		Jump(Jle, "head").
		Emit(Load, 7, 12).
		Emit(Store, 12, 7).
		Emit(XorR, 4, 7).
		Emit(Sys, 13).
		Emit(MovR, 0, 4).
		Emit(Ret))
	parsed, err := Parse(orig.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if parsed.Name != "roundtrip" {
		t.Errorf("name = %q", parsed.Name)
	}
	if len(parsed.Code) != len(orig.Code) {
		t.Fatalf("length %d, want %d", len(parsed.Code), len(orig.Code))
	}
	for i := range orig.Code {
		if parsed.Code[i] != orig.Code[i] {
			t.Errorf("instr %d = %+v, want %+v", i, parsed.Code[i], orig.Code[i])
		}
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	p, err := Parse("; demo\n\n  movi r0, 5\n; trailing comment\nret\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "demo" || len(p.Code) != 2 {
		t.Errorf("parsed %q with %d instructions", p.Name, len(p.Code))
	}
}

func TestParseWithoutIndexPrefixes(t *testing.T) {
	p, err := Parse("movi r0, 1\naddi r0, 2\nret")
	if err != nil {
		t.Fatal(err)
	}
	it := &Interp{}
	tr, err := it.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Result != 3 {
		t.Errorf("result = %d, want 3", tr.Result)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		text string
	}{
		{"unknown mnemonic", "frobnicate r1, r2\nret"},
		{"wrong operand count", "movi r0\nret"},
		{"bad register", "movi rx, 1\nret"},
		{"bad immediate", "movi r0, lots\nret"},
		{"bad target", "jmp @nope\nret"},
		{"bad address", "load r0, [many]\nret"},
		{"out of range target", "jmp @99\nret"},
		{"empty", ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.text); !errors.Is(err, ErrParse) {
				t.Errorf("Parse(%q) = %v, want ErrParse", tc.text, err)
			}
		})
	}
}

// TestParseAllocs: parsing allocates the Program and its Code, not a
// string or slice per line.
func TestParseAllocs(t *testing.T) {
	a := NewAsm("allocs")
	for i := 0; i < 999; i++ {
		a.Emit(MovI, int32(i%NumRegs), int32(i))
	}
	text := mustBuild(t, a.Emit(Ret)).String()
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := Parse(text); err != nil {
			t.Fatal(err)
		}
	}); allocs > 40 {
		t.Errorf("Parse of 1,000 instructions: %v allocs, want <= 40", allocs)
	}
}
