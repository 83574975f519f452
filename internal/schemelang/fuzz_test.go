package schemelang

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"bwshare/internal/graph"
	"bwshare/internal/schemes"
)

// FuzzSchemeCanonical holds the canonical form to its contract on any
// text ParseFull accepts: Parse(Canonical(g)) is graph.Equal to g, and
// the two graphs hash alike. Seeds are the catalog schemes, a scheme
// with fabric and fault headers, and the comm lists of the recorded
// traffic in scripts/testdata, whose volumes are not whole megabytes.
func FuzzSchemeCanonical(f *testing.F) {
	for _, name := range schemes.Names() {
		g, _ := schemes.Named(name)
		f.Add(Format(g))
	}
	f.Add("topology: fattree 2x4 oversub 4\nfault: link 0 degrade 0.25 at 0\nfault: link 1 down at 0.05 until 0.1\na: 0 -> 4 20MB\nb: 1 -> 5 20MB\nvolume 1.5GB\nc: 2 -> 6\nd: 3 -> 7 512KB # comment\n")
	for _, src := range replayLogSchemes(f, "../../scripts/testdata/load_replay.golden") {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, _, _, err := ParseFull(src)
		if err != nil {
			return
		}
		canon := Canonical(g)
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, canon)
		}
		if !graph.Equal(g, back) {
			t.Fatalf("canonical form does not round-trip:\n%s\nparsed back as\n%s", canon, Canonical(back))
		}
		if Hash(g) != Hash(back) {
			t.Fatalf("hash %x of the parsed scheme differs from %x of its canonical form", Hash(g), Hash(back))
		}
	})
}

// replayLogSchemes renders the comm lists of the request bodies in a
// recorded traffic log as scheme text, volumes in bytes.
func replayLogSchemes(f *testing.F, path string) []string {
	file, err := os.Open(path)
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	var out []string
	sc := bufio.NewScanner(file)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec struct {
			Body struct {
				Comms []struct {
					Src, Dst int
					Volume   float64
				}
			}
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		if len(rec.Body.Comms) == 0 {
			continue
		}
		var sb strings.Builder
		for i, c := range rec.Body.Comms {
			fmt.Fprintf(&sb, "c%d: %d -> %d %gB\n", i, c.Src, c.Dst, c.Volume)
		}
		out = append(out, sb.String())
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	return out
}
