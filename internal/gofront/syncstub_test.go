package gofront

import (
	"errors"
	"fmt"
	"go/build"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// newerSyncAPI lists stub members that an older toolchain's sync lacks,
// each with the Go release that added it.
var newerSyncAPI = map[string]string{
	"Map.Clear": "go1.23",
}

// TestSyncAPIMatchesStdlib: every exported object and method of the
// toolchain's sync has a stub counterpart with the same type and
// comparability, and the stub declares nothing the toolchain lacks
// beyond newerSyncAPI. A Go release that adds sync API fails here
// instead of silently changing which inputs type-check.
func TestSyncAPIMatchesStdlib(t *testing.T) {
	if _, err := os.Stat(filepath.Join(build.Default.GOROOT, "src", "sync")); err != nil {
		t.Skipf("no sync source in GOROOT: %v", err)
	}
	std, err := importer.ForCompiler(token.NewFileSet(), "source", nil).Import("sync")
	if err != nil {
		t.Fatal(err)
	}
	want, got := syncAPIMembers(std), syncAPIMembers(syncPackage())
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("stub lacks %s: %s", name, w)
		} else if g != w {
			t.Errorf("%s: stub %s, toolchain %s", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; ok {
			continue
		}
		release, listed := newerSyncAPI[name]
		switch {
		case !listed:
			t.Errorf("stub declares %s, which the toolchain's sync lacks; list it in newerSyncAPI with the release that added it", name)
		case slices.Contains(build.Default.ReleaseTags, release):
			t.Errorf("%s: toolchain is %s or newer but its sync lacks it", name, release)
		}
	}
}

// syncAPIMembers describes pkg's exported API: objects by name, methods
// by Type.Method. A type's description keeps only what a client can
// name: its exported fields, its interface methods and whether it is
// comparable.
func syncAPIMembers(pkg *types.Package) map[string]string {
	qual := func(p *types.Package) string { return p.Name() }
	members := map[string]string{}
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			members[name] = fmt.Sprintf("%T %s", obj, types.TypeString(obj.Type(), qual))
			continue
		}
		desc := types.TypeString(tn.Type().Underlying(), qual)
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			var fields []string
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields = append(fields, f.Name()+" "+types.TypeString(f.Type(), qual))
				}
			}
			desc = "struct{" + strings.Join(fields, "; ") + "}"
		}
		members[name] = fmt.Sprintf("type %s comparable=%v", desc, types.Comparable(tn.Type()))
		mset := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < mset.Len(); i++ {
			if m := mset.At(i).Obj(); m.Exported() {
				members[name+"."+m.Name()] = types.TypeString(m.Type(), qual)
			}
		}
	}
	return members
}

// TestSyncAPIRetainsLittle: the shared sync package stays small; no
// import closure rides along with it for the life of the process.
func TestSyncAPIRetainsLittle(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(corpusDir, "bankrace_mutex.go"))
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	if _, err := LoadSource("bankrace_mutex.go", src); err != nil {
		t.Fatal(err)
	}
	// A fresh build too, in case an earlier test already built the
	// shared one.
	pkg := checkSyncAPI()
	after := liveHeap()
	runtime.KeepAlive(pkg)
	if grew := int64(after) - int64(before); grew >= 256<<10 {
		t.Errorf("live heap grew %d bytes across the first load, want < 256 KiB", grew)
	}
}

// TestNoToolchainImports: the front end needs no Go toolchain at run
// time, so no non-test file may import the packages that find one.
func TestNoToolchainImports(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); path == "go/importer" || path == "go/build" {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), path)
			}
		}
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// syncAPIUser type-checks against most of the stub (interface
// satisfaction, generic inference, struct literals) and then fails in
// the lowering, which supports none of it.
const syncAPIUser = `package main
import "sync"
var (
	mu   sync.Mutex
	rw   sync.RWMutex
	m    sync.Map
	p    = sync.Pool{New: func() any { return 0 }}
	c    = sync.NewCond(&mu)
	l    sync.Locker = rw.RLocker()
	one  = sync.OnceValue(func() int { return 1 })
	two  = sync.OnceValues(func() (int, error) { return 1, nil })
)
func main() { go func() { c.Signal() }() }
`

// TestLoadSourceConcurrent: concurrent loads share the one sync package
// and each still lowers to its golden (run under -race in CI).
func TestLoadSourceConcurrent(t *testing.T) {
	files := corpusFiles(t)
	srcs := make([][]byte, len(files))
	goldens := make([]string, len(files))
	for i, f := range files {
		var err error
		if srcs[i], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(filepath.Join(corpusDir, "golden", strings.TrimSuffix(filepath.Base(f), ".go")+".ir"))
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = string(golden)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, f := range files {
				p, err := LoadSource(f, srcs[i])
				if err != nil {
					t.Errorf("%s: %v", f, err)
				} else if got := p.Prog.String(); got != goldens[i] {
					t.Errorf("%s: concurrent lowering differs from golden:\n%s", f, got)
				}
			}
			_, err := LoadSource("user.go", []byte(syncAPIUser))
			var de *DiagError
			if !errors.As(err, &de) || strings.Contains(err.Error(), "type check") {
				t.Errorf("sync API user: %v, want only lowering diagnostics", err)
			}
		}()
	}
	wg.Wait()
}

// FuzzLoadSource: any input either lowers to a valid program or fails
// with diagnostics that all carry a position; it never panics.
func FuzzLoadSource(f *testing.F) {
	for _, file := range corpusFiles(f) {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, c := range diagCases {
		f.Add([]byte(c.src))
	}
	f.Add([]byte(syncAPIUser))
	f.Fuzz(func(t *testing.T, src []byte) {
		p, err := LoadSource("fuzz.go", src)
		if err == nil {
			if verr := p.Prog.Validate(); verr != nil {
				t.Fatalf("lowered program invalid: %v", verr)
			}
			return
		}
		var de *DiagError
		var se scanner.ErrorList
		switch {
		case errors.As(err, &de):
			for _, d := range de.Diags {
				if d.Pos.Line <= 0 {
					t.Errorf("unpositioned diagnostic %q", d)
				}
			}
		case errors.As(err, &se):
			for _, e := range se {
				if e.Pos.Line <= 0 {
					t.Errorf("unpositioned parse error %q", e)
				}
			}
		default:
			t.Fatalf("error %T is neither diagnostics nor a parse error: %v", err, err)
		}
	})
}
