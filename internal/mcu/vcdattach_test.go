package mcu

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/asm"
)

func TestAttachVCDAndHelpers(t *testing.T) {
	img, err := asm.AssembleSource(`
start:  mov #5, r10
loop:   dec r10
        jnz loop
done:   jmp done
`)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSystem(t)
	s.LoadImage(img)
	s.TaintCode(img.Entry, img.Entry+2) // label the first instruction

	var buf bytes.Buffer
	v, err := s.AttachVCD(&buf, []string{"jump.branch_taken", "por"})
	if err != nil {
		t.Fatal(err)
	}
	s.PowerOn()
	for i := 0; i < 20; i++ {
		s.Step()
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "$enddefinitions") || !strings.Contains(out, "jump.branch_taken") {
		t.Fatalf("vcd malformed:\n%s", out)
	}
	// The taken loop branch must show a rising branch_taken somewhere.
	if !strings.Contains(out, "1!") && !strings.Contains(out, "1#") {
		t.Fatal("no branch activity recorded")
	}
	// SnapshotPC agrees with the live PC.
	s.EvalCycle(nil)
	sn := s.Snapshot()
	if got, live := s.SnapshotPC(sn), s.GetWord(s.D.PC); got != live {
		t.Fatalf("SnapshotPC %s != live %s", got, live)
	}
	// Fetch from the tainted partition: the fetched word carries the label.
	if w := s.ROM.LoadWord(img.Entry); !w.Tainted() {
		t.Fatal("TaintCode label lost")
	}
}
