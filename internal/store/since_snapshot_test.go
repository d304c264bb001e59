package store

import (
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// parkingFile is a WAL segment whose next Sync, once armed, reports on
// parked and then blocks until release is closed.
type parkingFile struct {
	*os.File
	armed   *atomic.Bool
	parked  chan<- struct{}
	release <-chan struct{}
}

func (f *parkingFile) Sync() error {
	if f.armed.CompareAndSwap(true, false) {
		f.parked <- struct{}{}
		<-f.release
	}
	return f.File.Sync()
}

// TestSinceSnapshotDoesNotWaitForFsync pins that the engine's
// per-mutation snapshot check never queues behind another graph's
// append: SinceSnapshot must return while an Append is parked inside
// its fsync, which it holds the store lock across.
func TestSinceSnapshotDoesNotWaitForFsync(t *testing.T) {
	var armed atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	prev := openWALFile
	openWALFile = func(path string, flag int, perm os.FileMode) (walFile, error) {
		f, err := os.OpenFile(path, flag, perm)
		if err != nil {
			return nil, err
		}
		return &parkingFile{File: f, armed: &armed, parked: parked, release: release}, nil
	}
	t.Cleanup(func() { openWALFile = prev })

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(Op{Kind: OpRegister, Name: "a", Graph: testGraph(1)}); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	appended := make(chan error, 1)
	go func() {
		_, err := s.Append(Op{Kind: OpRegister, Name: "b", Graph: testGraph(2)})
		appended <- err
	}()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the second append never reached its fsync")
	}

	since := make(chan int, 1)
	go func() { since <- s.SinceSnapshot() }()
	select {
	case n := <-since:
		if n != 1 {
			t.Errorf("SinceSnapshot during the parked append = %d, want 1", n)
		}
	case <-time.After(5 * time.Second):
		close(release)
		<-appended
		t.Fatal("SinceSnapshot waited for another append's fsync")
	}
	close(release)
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if n := s.SinceSnapshot(); n != 2 {
		t.Fatalf("SinceSnapshot after both appends = %d, want 2", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
