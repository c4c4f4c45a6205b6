package tsdb

import (
	"bytes"
	"testing"
	"time"
)

func TestSnapshotDeterministic(t *testing.T) {
	db := seedDB(t)
	var a, b bytes.Buffer
	if err := db.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshots must be byte-identical")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	db := New()
	db.Put("m", nil, t0, 1)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Mutating the source after Save must not change what was written.
	db.Put("m", nil, t0.Add(time.Minute), 2)
	want := New()
	want.Put("m", nil, t0, 1)
	var wb bytes.Buffer
	if err := want.Save(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wb.Bytes()) {
		t.Fatal("snapshot changed after a later Put")
	}
}
