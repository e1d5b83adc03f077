package bench

import (
	"testing"

	"repro/internal/transform"
)

// TestBuildUnmodifiedShared: the unmodified system is assembled once per
// benchmark; later builds reuse the image instead of reassembling.
func TestBuildUnmodifiedShared(t *testing.T) {
	b := ByName("mult")
	bt1, err := BuildUnmodified(b)
	if err != nil {
		t.Fatal(err)
	}
	bt2, err := BuildUnmodified(b)
	if err != nil {
		t.Fatal(err)
	}
	if bt1 != bt2 || bt1.Img != bt2.Img {
		t.Error("BuildUnmodified should return the shared assembled system")
	}
}

// TestScaffoldCacheIsolation: variant builds must never perturb one another
// or the shared unmodified system — a masked build followed by an unmasked
// build of the same scaffold yields the original image.
func TestScaffoldCacheIsolation(t *testing.T) {
	b := ByName("inSort")
	unmod, err := BuildUnmodified(b)
	if err != nil {
		t.Fatal(err)
	}
	off, err := taskStmtOffset(unmod.Stmts)
	if err != nil {
		t.Fatal(err)
	}
	flaggedLines := map[int]bool{}
	for _, si := range transform.MaskableStoreIdxs(unmod.Stmts) {
		if si >= off {
			flaggedLines[unmod.Stmts[si].Line] = true
		}
	}
	if len(flaggedLines) == 0 {
		t.Fatal("benchmark has no maskable task stores")
	}
	masked, err := buildVariant(b, AlwaysOn, false, transform.WdtPlan{}, flaggedLines)
	if err != nil {
		t.Fatal(err)
	}
	if masked.Masked == 0 {
		t.Fatal("masked variant inserted nothing")
	}
	// Same scaffold, no flags: must reproduce the unmodified image exactly
	// even though the masked build relabelled its statement copies.
	plain, err := buildVariant(b, Unmodified, false, transform.WdtPlan{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Img.Entry != unmod.Img.Entry || len(plain.Img.Segments) != len(unmod.Img.Segments) {
		t.Fatalf("cache perturbed: entry/segments differ (%+v vs %+v)", plain.Img, unmod.Img)
	}
	for i, seg := range unmod.Img.Segments {
		got := plain.Img.Segments[i]
		if got.Addr != seg.Addr || len(got.Words) != len(seg.Words) {
			t.Fatalf("cache perturbed: segment %d shape differs", i)
		}
		for k, w := range seg.Words {
			if got.Words[k] != w {
				t.Fatalf("cache perturbed: segment %d word %d = %#x, want %#x", i, k, got.Words[k], w)
			}
		}
	}
}
