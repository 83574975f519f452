package schemelang

import (
	"testing"

	"bwshare/internal/graph"
	"bwshare/internal/schemes"
)

func TestParseBasic(t *testing.T) {
	g, err := Parse(`
# Figure 2 scheme S2
a: 0 -> 1
b: 0 -> 2
`)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	a, _ := g.ByLabel("a")
	if a.Src != 0 || a.Dst != 1 || a.Volume != DefaultVolume {
		t.Fatalf("a = %+v", a)
	}
}

func TestVolumeDirectiveAndOverride(t *testing.T) {
	g, err := Parse(`
volume 4MB
a: 0 -> 1
b: 0 -> 2 512KB
`)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.ByLabel("a")
	b, _ := g.ByLabel("b")
	if a.Volume != 4e6 {
		t.Errorf("a volume = %g, want 4e6", a.Volume)
	}
	if b.Volume != 512e3 {
		t.Errorf("b volume = %g, want 512e3", b.Volume)
	}
}

func TestParseVolumeUnits(t *testing.T) {
	cases := map[string]float64{
		"8B": 8, "2KB": 2e3, "20MB": 20e6, "1.5GB": 1.5e9, "4000000": 4e6,
	}
	for in, want := range cases {
		got, err := ParseVolume(in)
		if err != nil || got != want {
			t.Errorf("ParseVolume(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "-5MB", "0B", "MB", "nan", "NaNB", "inf", "+InfMB", "1e303GB"} {
		if _, err := ParseVolume(bad); err == nil {
			t.Errorf("ParseVolume(%q) should fail", bad)
		}
	}
}

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	cases := map[string]int{
		"a: 0 -> 1\nbogus line": 2,
		"a: 0 ->":               1,
		"a: x -> 1":             1,
		"a: 0 -> y":             1,
		"volume":                1,
		"volume 4MB 5MB":        1,
		"a: 0 -> 1 2MB 3MB":     1,
		"a: 0 -> 1\na: 2 -> 3":  0, // duplicate label: builder error
		":\n":                   1,
	}
	for in, wantLine := range cases {
		_, err := Parse(in)
		if err == nil {
			t.Errorf("Parse(%q) should fail", in)
			continue
		}
		if pe, ok := err.(*ParseError); ok && wantLine > 0 && pe.Line != wantLine {
			t.Errorf("Parse(%q): error on line %d, want %d", in, pe.Line, wantLine)
		}
	}
	if _, err := Parse("# only a comment\n"); err == nil {
		t.Error("empty scheme should fail")
	}
}

func TestSelfLoopRejected(t *testing.T) {
	if _, err := Parse("a: 3 -> 3"); err == nil {
		t.Fatal("self loop accepted")
	}
}

// TestRoundTripAgainstRegistry: Format then Parse reproduces every
// registry scheme.
func TestRoundTripAgainstRegistry(t *testing.T) {
	for _, name := range schemes.Names() {
		g, _ := schemes.Named(name)
		text := Format(g)
		back, err := Parse(text)
		if err != nil {
			t.Errorf("%s: %v\n%s", name, err, text)
			continue
		}
		if back.String() != g.String() {
			t.Errorf("%s: round trip %q != %q", name, back.String(), g.String())
		}
		for _, c := range g.Comms() {
			rc, ok := back.ByLabel(c.Label)
			if !ok || rc.Volume != c.Volume {
				t.Errorf("%s: comm %s volume %g != %g", name, c.Label, rc.Volume, c.Volume)
			}
		}
	}
}

func TestCommentAndWhitespaceTolerance(t *testing.T) {
	g, err := Parse("  a :  0  ->  1   # inline\n\n\t\nb: 2->3")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
}

func TestHashIdentity(t *testing.T) {
	for _, name := range schemes.Names() {
		g, _ := schemes.Named(name)
		back, err := Parse(Canonical(g))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !graph.Equal(g, back) {
			t.Errorf("%s: Parse(Canonical(g)) not Equal to g", name)
		}
		if Hash(g) != Hash(back) {
			t.Errorf("%s: hash changed across canonical round trip", name)
		}
	}
}

func TestHashDiscriminates(t *testing.T) {
	base := graph.NewBuilder().Add("a", 0, 1, 20e6).Add("b", 0, 2, 20e6).MustBuild()
	variants := []*graph.Graph{
		graph.NewBuilder().Add("a", 0, 1, 20e6).Add("c", 0, 2, 20e6).MustBuild(), // label
		graph.NewBuilder().Add("a", 3, 1, 20e6).Add("b", 0, 2, 20e6).MustBuild(), // src
		graph.NewBuilder().Add("a", 0, 4, 20e6).Add("b", 0, 2, 20e6).MustBuild(), // dst
		graph.NewBuilder().Add("a", 0, 1, 10e6).Add("b", 0, 2, 20e6).MustBuild(), // volume
		graph.NewBuilder().Add("a", 0, 1, 20e6).MustBuild(),                      // length
		graph.NewBuilder().Add("b", 0, 2, 20e6).Add("a", 0, 1, 20e6).MustBuild(), // order
	}
	for i, v := range variants {
		if graph.Equal(base, v) {
			t.Errorf("variant %d: Equal should be false", i)
		}
		if Hash(base) == Hash(v) {
			t.Errorf("variant %d: hash collision with base", i)
		}
	}
}

func TestHashZeroAlloc(t *testing.T) {
	g, _ := schemes.Named("mk2")
	if n := testing.AllocsPerRun(100, func() { Hash(g) }); n != 0 {
		t.Errorf("Hash allocates %v per run, want 0", n)
	}
	h := Hash(g)
	if n := testing.AllocsPerRun(100, func() {
		if !graph.Equal(g, g) || Hash(g) != h {
			t.Fatal("identity broke")
		}
	}); n != 0 {
		t.Errorf("Equal+Hash allocate %v per run, want 0", n)
	}
}
