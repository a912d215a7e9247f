package models

import (
	"math/rand"
	"testing"

	"fedfteds/internal/tensor"
)

func TestWRNDeeperDepth(t *testing.T) {
	// depth 22 = 6*3+4: three blocks per group.
	m, err := Build(Spec{
		Arch:        ArchWRN,
		InputShape:  []int{1, 8, 8},
		NumClasses:  3,
		Depth:       22,
		WidthFactor: 2,
		InitSeed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.OutputShape()
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 {
		t.Fatalf("output %v", out)
	}
	// Width factor 2 → final features 128.
	head, err := m.Group(GroupClassifier)
	if err != nil {
		t.Fatal(err)
	}
	if got := head.Params()[0].W.Dim(1); got != 128 {
		t.Fatalf("classifier input width %d, want 128", got)
	}
}

func TestWRNCloneAgreesOnForward(t *testing.T) {
	m, err := Build(wrnSpec())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(2, 3, 8, 8)
	x.FillNormal(rng, 0, 1)
	// Move BN running stats off their defaults before cloning.
	m.Forward(x, true)
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	y1 := m.Forward(x, false)
	y2 := c.Forward(x, false)
	if !y1.AllClose(y2, 1e-6) {
		t.Fatal("WRN clone eval output differs")
	}
}

func TestGroupFLOPsSumToTotal(t *testing.T) {
	for _, spec := range []Spec{mlpSpec(), wrnSpec()} {
		m, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		perGroup, total := m.GroupFLOPs()
		var sum int64
		for _, f := range perGroup {
			sum += f
		}
		if sum != total {
			t.Fatalf("%s: group FLOPs %d != total %d", spec.Arch, sum, total)
		}
		if total <= 0 {
			t.Fatalf("%s: non-positive FLOPs", spec.Arch)
		}
	}
}

func TestCopyGroupStateAcrossLabelSpaces(t *testing.T) {
	// The pretraining transfer: same architecture, different class counts.
	src := mlpSpec()
	src.NumClasses = 20
	srcM, err := Build(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := mlpSpec() // 5 classes
	dstM, err := Build(dst)
	if err != nil {
		t.Fatal(err)
	}
	extractor := []string{GroupLow, GroupMid, GroupUp}
	if err := dstM.CopyGroupStateFrom(srcM, extractor); err != nil {
		t.Fatal(err)
	}
	srcLow, err := srcM.GroupStateTensors([]string{GroupLow})
	if err != nil {
		t.Fatal(err)
	}
	dstLow, err := dstM.GroupStateTensors([]string{GroupLow})
	if err != nil {
		t.Fatal(err)
	}
	for i := range srcLow {
		if !srcLow[i].Equal(dstLow[i]) {
			t.Fatal("extractor state not transferred")
		}
	}
	// Classifier must not transfer: widths differ.
	if err := dstM.CopyGroupStateFrom(srcM, []string{GroupClassifier}); err == nil {
		t.Fatal("expected error transferring mismatched classifier")
	}
}

func TestFinetunePartString(t *testing.T) {
	tests := map[FinetunePart]string{
		FinetuneFull:       "full",
		FinetuneLarge:      "large",
		FinetuneModerate:   "moderate",
		FinetuneClassifier: "classifier",
		FinetunePart(42):   "FinetunePart(42)",
	}
	for part, want := range tests {
		if got := part.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

func TestSetFinetunePartRejectsUnknown(t *testing.T) {
	m, err := Build(mlpSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetFinetunePart(FinetunePart(0)); err == nil {
		t.Fatal("expected error for unknown part")
	}
}
