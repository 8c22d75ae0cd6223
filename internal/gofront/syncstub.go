package gofront

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sync"
)

// syncAPI declares package sync's exported API with empty bodies. It
// is all the type checker needs of sync to check a gofront input: the
// lowering keys on the types' identities and method names, never on
// their implementation. Top-level unexported field names follow the
// real package, and each type's field kinds keep its comparability
// (Mutex, RWMutex, WaitGroup, Once, Cond compare; Map and Pool do not).
// TestSyncAPIMatchesStdlib keeps this in step with the toolchain's sync.
const syncAPI = `package sync

type noCopy struct{}

type Locker interface {
	Lock()
	Unlock()
}

type Mutex struct {
	_  noCopy
	mu struct {
		state int32
		sema  uint32
	}
}

func (m *Mutex) Lock()         {}
func (m *Mutex) TryLock() bool { return false }
func (m *Mutex) Unlock()       {}

type RWMutex struct {
	w           Mutex
	writerSem   uint32
	readerSem   uint32
	readerCount int32
	readerWait  int32
}

func (rw *RWMutex) RLock()          {}
func (rw *RWMutex) TryRLock() bool  { return false }
func (rw *RWMutex) RUnlock()        {}
func (rw *RWMutex) Lock()           {}
func (rw *RWMutex) TryLock() bool   { return false }
func (rw *RWMutex) Unlock()         {}
func (rw *RWMutex) RLocker() Locker { return nil }

type WaitGroup struct {
	noCopy noCopy
	state  uint64
	sema   uint32
}

func (wg *WaitGroup) Add(delta int) {}
func (wg *WaitGroup) Done()         {}
func (wg *WaitGroup) Wait()         {}

type Once struct {
	_    noCopy
	done uint32
	m    Mutex
}

func (o *Once) Do(f func()) {}

func OnceFunc(f func()) func()                                 { return nil }
func OnceValue[T any](f func() T) func() T                     { return nil }
func OnceValues[T1, T2 any](f func() (T1, T2)) func() (T1, T2) { return nil }

type Cond struct {
	noCopy noCopy
	L      Locker
	notify struct {
		wait, notify     uint32
		lock, head, tail uintptr
	}
	checker uintptr
}

func NewCond(l Locker) *Cond { return nil }
func (c *Cond) Wait()        {}
func (c *Cond) Signal()      {}
func (c *Cond) Broadcast()   {}

type Map struct {
	_ noCopy
	m map[any]any
}

func (m *Map) Load(key any) (value any, ok bool)                    { return }
func (m *Map) Store(key, value any)                                 {}
func (m *Map) Clear()                                               {}
func (m *Map) LoadOrStore(key, value any) (actual any, loaded bool) { return }
func (m *Map) LoadAndDelete(key any) (value any, loaded bool)       { return }
func (m *Map) Delete(key any)                                       {}
func (m *Map) Swap(key, value any) (previous any, loaded bool)      { return }
func (m *Map) CompareAndSwap(key, old, new any) (swapped bool)      { return }
func (m *Map) CompareAndDelete(key, old any) (deleted bool)         { return }
func (m *Map) Range(f func(key, value any) bool)                    {}

type Pool struct {
	noCopy     noCopy
	local      uintptr
	localSize  uintptr
	victim     uintptr
	victimSize uintptr
	New        func() any
}

func (p *Pool) Put(x any) {}
func (p *Pool) Get() any  { return nil }
`

var (
	syncOnce sync.Once
	syncPkg  *types.Package
)

// syncPackage returns the sync API package, type-checked on first use.
// Every LoadSource shares it; a checked package is only read after.
func syncPackage() *types.Package {
	syncOnce.Do(func() { syncPkg = checkSyncAPI() })
	return syncPkg
}

// checkSyncAPI type-checks syncAPI. Its file sits at a base no user
// file reaches, so a stub position can never render as a position in
// the caller's file set.
func checkSyncAPI() *types.Package {
	fset := token.NewFileSet()
	fset.AddFile("", fset.Base(), 1<<30)
	file, err := parser.ParseFile(fset, "sync.go", syncAPI, parser.SkipObjectResolution)
	if err != nil {
		panic(fmt.Sprintf("gofront: sync API: %v", err))
	}
	pkg, err := new(types.Config).Check("sync", fset, []*ast.File{file}, nil)
	if err != nil {
		panic(fmt.Sprintf("gofront: sync API: %v", err))
	}
	return pkg
}

// syncImporter resolves the one import gofront supports.
type syncImporter struct{}

func (syncImporter) Import(path string) (*types.Package, error) {
	if path != "sync" {
		return nil, fmt.Errorf("package %q unsupported", path)
	}
	return syncPackage(), nil
}
