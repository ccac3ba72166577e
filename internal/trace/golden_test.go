package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"iophases/internal/units"
)

// Golden trace directories under testdata/writers, one per encoding. They
// were written from writerSet and pin every byte the writers produce:
// meta.json's layout, the Figure 2 column widths and the IOBIN1 records.
var goldenDirs = map[Format]string{
	FormatText:   filepath.Join("testdata", "writers", "text"),
	FormatBinary: filepath.Join("testdata", "writers", "binary"),
}

// writerSet is adversarialSet plus a second file whose metadata carries
// per-rank views, so the optional meta.json fields are pinned too.
func writerSet() *Set {
	s := adversarialSet()
	s.AddFile(FileMeta{ID: 1, Name: "/viewed", AccessType: "shared", PointerSet: "explicit",
		Collective: true, Blocking: true, HasView: true, ViewDisp: 8, ViewEtype: 40,
		ViewDesc: "vector(2,10,40)", Views: []ViewInfo{
			{Rank: 0, Disp: 8, Etype: 40, Block: 400, Stride: 1200},
			{Rank: 2, Disp: 8, Etype: 40, Block: 400, Stride: 1200, Phase: 800},
		}})
	s.Record(Event{Rank: 2, File: 1, Op: OpWriteAtAll, Offset: 10, Tick: 2, Size: 400,
		Time: 7 * units.Microsecond, Duration: 3 * units.Microsecond})
	return s
}

// sameDir fails unless got holds exactly the files of want, byte for byte.
func sameDir(t *testing.T, got, want string) {
	t.Helper()
	wantEnts, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	gotEnts, err := os.ReadDir(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotEnts) != len(wantEnts) {
		t.Fatalf("%s holds %d files, want %d", got, len(gotEnts), len(wantEnts))
	}
	for i, e := range wantEnts {
		if gotEnts[i].Name() != e.Name() {
			t.Fatalf("%s: file %q, want %q", got, gotEnts[i].Name(), e.Name())
		}
		w, err := os.ReadFile(filepath.Join(want, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(got, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from %s:\ngot  %q\nwant %q", e.Name(), want, g, w)
		}
	}
}

func TestSaveMatchesGolden(t *testing.T) {
	dir := t.TempDir()
	if err := writerSet().Save(dir); err != nil {
		t.Fatal(err)
	}
	sameDir(t, dir, goldenDirs[FormatText])
}

func TestWriteDirMatchesGolden(t *testing.T) {
	for f, golden := range goldenDirs {
		dir := filepath.Join(t.TempDir(), f.String())
		if err := WriteDir(writerSet().Source(), dir, f); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		sameDir(t, dir, golden)
	}
}

func TestConvertDirMatchesGolden(t *testing.T) {
	for from, to := range map[Format]Format{FormatText: FormatBinary, FormatBinary: FormatText} {
		dir := filepath.Join(t.TempDir(), to.String())
		if err := ConvertDir(goldenDirs[from], dir, to); err != nil {
			t.Fatalf("%s to %s: %v", from, to, err)
		}
		sameDir(t, dir, goldenDirs[to])
	}
}
