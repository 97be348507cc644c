package perf

import (
	"bytes"
	"reflect"
	"testing"
)

// fakeSource simulates a live PMU the test advances by hand.
type fakeSource struct{ c Counters }

func (f *fakeSource) read() Counters { return f.c.Snapshot() }

func TestIntervalReaderWindows(t *testing.T) {
	src := &fakeSource{}
	src.c.Add(InstRetired, 50) // pre-existing state: stream starts here
	r, err := NewIntervalReader(src.read, 100)
	if err != nil {
		t.Fatal(err)
	}

	// Below the boundary: no row.
	src.c.Add(InstRetired, 99)
	src.c.Add(Cycles, 10)
	r.Tick(src.c.Get(InstRetired))
	if len(r.Rows()) != 0 {
		t.Fatalf("row emitted below boundary")
	}

	// Crossing (with overshoot): one row holding the whole window.
	src.c.Add(InstRetired, 7)
	src.c.Add(Cycles, 5)
	r.Tick(src.c.Get(InstRetired))
	rows := r.Rows()
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	if rows[0].InstStart != 50 || rows[0].InstEnd != 156 {
		t.Errorf("window [%d,%d], want [50,156]", rows[0].InstStart, rows[0].InstEnd)
	}
	if rows[0].Delta.Get(Cycles) != 15 || rows[0].Delta.Get(InstRetired) != 106 {
		t.Errorf("window delta wrong: %+v", rows[0].Delta)
	}

	// Flush closes the partial window; an empty flush adds nothing.
	src.c.Add(InstRetired, 1)
	r.Flush()
	r.Flush()
	rows = r.Rows()
	if len(rows) != 2 {
		t.Fatalf("%d rows after flush, want 2", len(rows))
	}
	if rows[1].InstStart != 156 || rows[1].InstEnd != 157 || rows[1].Index != 1 {
		t.Errorf("flush row wrong: %+v", rows[1])
	}
}

func TestIntervalReaderZeroInterval(t *testing.T) {
	src := &fakeSource{}
	if _, err := NewIntervalReader(src.read, 0); err == nil {
		t.Error("zero interval accepted")
	}
}

func testRows() []IntervalRow {
	var d1, d2 Counters
	d1.Add(InstRetired, 1000)
	d1.Add(DTLBLoadWalkDuration, 777)
	d2.Add(InstRetired, 1004)
	d2.Add(WalkerLoadsMem, ^uint64(0))
	return []IntervalRow{
		{Index: 0, InstStart: 0, InstEnd: 1000, Delta: d1},
		{Index: 1, InstStart: 1000, InstEnd: 2004, Delta: d2},
	}
}

func TestIntervalsCSVRoundTrip(t *testing.T) {
	want := testRows()
	var buf bytes.Buffer
	if err := WriteIntervalsCSV(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIntervalsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("csv round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestIntervalsJSONLRoundTrip(t *testing.T) {
	want := testRows()
	var buf bytes.Buffer
	if err := WriteIntervalsJSONL(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIntervalsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("jsonl round trip:\n got %+v\nwant %+v", got, want)
	}
}
