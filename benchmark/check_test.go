package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/storage"
)

// preloadItems returns the correct result of a query over iv on a cluster
// that holds only the preload.
func preloadItems(o *oracle, iv keyspace.Interval) []datastore.Item {
	var out []datastore.Item
	for k := keyspace.Key(keyStep); k <= o.preloadMax; k += keyStep {
		if iv.Contains(k) {
			out = append(out, datastore.Item{Key: k, Payload: payloadFor(k)})
		}
	}
	return out
}

func TestOracleAcceptsTheCorrectResult(t *testing.T) {
	o := newOracle(3)
	iv := keyspace.ClosedInterval(1000, 7000)
	if bad := o.checkQuery(iv, 0, 1, preloadItems(o, iv)); len(bad) != 0 {
		t.Fatalf("correct result rejected: %v", bad)
	}
}

func TestOracleCountsEachDefectAsIncorrect(t *testing.T) {
	o := newOracle(3)
	iv := keyspace.ClosedInterval(1000, 7000)
	good := func() []datastore.Item { return preloadItems(o, iv) }

	missing := good()
	missing = append(missing[:3], missing[4:]...)

	phantom := append(good(), datastore.Item{})
	copy(phantom[2:], phantom[1:])
	phantom[1] = datastore.Item{Key: 1001, Payload: payloadFor(1001)} // never inserted

	wrongPayload := good()
	wrongPayload[2].Payload = "not derived from the key"

	outOfOrder := good()
	outOfOrder[1], outOfOrder[2] = outOfOrder[2], outOfOrder[1]

	outside := append(good(), datastore.Item{Key: 7500, Payload: payloadFor(7500)})

	for name, tc := range map[string]struct {
		items []datastore.Item
		want  string
	}{
		"missing preload key": {missing, "preload keys"},
		"phantom key":         {phantom, "phantom key 1001"},
		"wrong payload":       {wrongPayload, "wrong payload"},
		"out of order":        {outOfOrder, "out of order"},
		"outside interval":    {outside, "outside"},
	} {
		bad := o.checkQuery(iv, 0, 1, tc.items)
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, "; "), tc.want) {
			t.Errorf("%s: got %v, want a complaint containing %q", name, bad, tc.want)
		}
	}
}

func TestOracleLiveWindows(t *testing.T) {
	o := newOracle(3)
	iv := keyspace.ClosedInterval(1000, 7000)
	const key = 1234
	with := func() []datastore.Item {
		items := preloadItems(o, iv)
		return append([]datastore.Item{items[0], {Key: key, Payload: payloadFor(key)}}, items[1:]...)
	}
	without := func() []datastore.Item { return preloadItems(o, iv) }
	check := func(when string, qs, qe int64, items []datastore.Item, wantOK bool) {
		t.Helper()
		if bad := o.checkQuery(iv, qs, qe, items); (len(bad) == 0) != wantOK {
			t.Errorf("%s: complaints %v, want ok=%t", when, bad, wantOK)
		}
	}

	l := o.startInsert(key)
	l.insStart = 100
	check("before the insert was sent", 10, 20, with(), false)
	check("while the insert is in flight, present", 150, 160, with(), true)
	check("while the insert is in flight, absent", 150, 160, without(), true)

	o.endInsert(l, nil)
	l.insAck = 200
	check("live throughout, present", 300, 310, with(), true)
	check("live throughout, absent", 300, 310, without(), false)
	check("query began before the acknowledgement", 150, 310, without(), true)

	if got := o.startDelete(); got != l {
		t.Fatalf("startDelete picked %v, want the one live key", got)
	}
	l.delStart = 400
	check("delete in flight, present", 450, 460, with(), true)
	check("delete in flight, absent", 450, 460, without(), true)
	check("query spans the delete's start", 390, 460, without(), true)

	o.endDelete(l, nil)
	l.delAck = 500
	check("after the delete, absent", 600, 610, without(), true)
	check("after the delete, present", 600, 610, with(), false)
	check("query began before the delete was acknowledged", 490, 610, with(), true)

	// A failed mutation leaves the key's fate open for good.
	l2 := o.startInsert(2345)
	o.endInsert(l2, errors.New("timed out"))
	items := without()
	check("unsure key absent", 700, 710, items, true)
}

func TestFailStopMakesUnreplicatedWritesUnsure(t *testing.T) {
	o := newOracle(3)
	replicated, unreplicated, inFlight := o.startInsert(1001), o.startInsert(1002), o.startInsert(1003)
	o.endInsert(replicated, nil)
	o.endInsert(unreplicated, nil)
	elsewhere := o.startInsert(400_001)
	o.endInsert(elsewhere, nil)
	n := o.failStop(keyspace.NewRange(0, 150_000), map[keyspace.Key]bool{1002: true, 400_001: true})
	if n != 2 {
		t.Fatalf("failStop marked %d keys, want 2", n)
	}
	if replicated.unsure || !unreplicated.unsure || !inFlight.unsure || elsewhere.unsure {
		t.Fatalf("unsure flags: replicated %t unreplicated %t in flight %t elsewhere %t",
			replicated.unsure, unreplicated.unsure, inFlight.unsure, elsewhere.unsure)
	}
	present, _ := o.expected()
	for _, k := range present {
		if k == unreplicated.key {
			t.Fatal("an unsure key must not be expected present")
		}
	}
}

func TestCountLost(t *testing.T) {
	states := []storage.State{
		{HasRange: true, Range: keyspace.NewRange(0, 1000), Epoch: 2, Items: map[keyspace.Key]string{500: payloadFor(500), 700: "torn"}},
		{HasRange: true, Range: keyspace.NewRange(1000, 0), Epoch: 2, Items: map[keyspace.Key]string{1500: payloadFor(1500), 1600: payloadFor(1600)}},
		// A superseded incarnation of the first range still holds a deleted key.
		{HasRange: true, Range: keyspace.NewRange(0, 1000), Epoch: 1, Items: map[keyspace.Key]string{600: payloadFor(600)}},
	}
	cases := []struct {
		name            string
		present, absent []keyspace.Key
		want            int
	}{
		{"all acknowledged writes recovered", []keyspace.Key{500, 1500}, []keyspace.Key{600}, 0},
		{"an acknowledged insert is gone", []keyspace.Key{500, 800}, nil, 1},
		{"a payload is torn", []keyspace.Key{700}, nil, 1},
		{"an acknowledged delete came back", nil, []keyspace.Key{1600}, 1},
	}
	for _, tc := range cases {
		if got := countLost(states, tc.present, tc.absent); got != tc.want {
			t.Errorf("%s: %d lost, want %d", tc.name, got, tc.want)
		}
	}
}

// The crash image of a directory written at fsync-per-append, taken without
// Close, must reopen with every acknowledged write under its live claim, and
// with nothing written after the image was taken.
func TestDurabilityAuditOnCrashImage(t *testing.T) {
	root := t.TempDir()
	b, err := storage.DiskFactory{Dir: root}.Open("127.0.0.1:7001")
	if err != nil {
		t.Fatal(err)
	}
	appendRec := func(r storage.Record) {
		t.Helper()
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(storage.Record{Kind: storage.RecClaim, Epoch: 3, Lo: 0, Hi: 0})
	for _, k := range []keyspace.Key{500, 1000, 1500} {
		appendRec(storage.Record{Kind: storage.RecPut, Epoch: 3, Key: k, Payload: payloadFor(k)})
	}
	appendRec(storage.Record{Kind: storage.RecDelete, Epoch: 3, Key: 1000})
	// No Close: the image is what a SIGKILL now would leave behind.
	image := t.TempDir()
	if err := crashImage(root, image); err != nil {
		t.Fatal(err)
	}
	appendRec(storage.Record{Kind: storage.RecPut, Epoch: 3, Key: 2000, Payload: payloadFor(2000)}) // after the crash instant
	root = image

	lost, _, err := durabilityAudit(root, []keyspace.Key{500, 1500}, []keyspace.Key{1000})
	if err != nil || lost != 0 {
		t.Fatalf("audit of an intact directory: lost %d, err %v", lost, err)
	}
	lost, _, err = durabilityAudit(root, []keyspace.Key{500, 1500, 2000}, nil)
	if err != nil || lost != 1 {
		t.Fatalf("audit with one write that was never logged: lost %d, err %v", lost, err)
	}
}
