package exec

import (
	"io"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

// HashJoin is an inner equi-join: the left (build) side is materialized
// into a hash table, the right (probe) side streams. The optimizer uses
// cardinality statistics to put the smaller input on the build side — one
// of the stats-driven choices behind Fig 12.
//
// Both sides are batches: join keys evaluate once per input batch per key
// expression, and joined rows pack into output batches of up to
// DefaultBatchSize rows that may span several probe batches. Output order
// is probe order, then build insertion order within each key.
type HashJoin struct {
	left, right         BatchOperator
	leftKeys, rightKeys []expr.Expr
	cols                []Col
	leftWidth           int

	table map[uint64][]buildRow

	probe   *Batch          // current probe batch; nil before the first
	keyVecs [][]datum.Datum // probe key vectors of the current batch
	keyScr  [][]datum.Datum
	live    int   // live rows of the probe batch already probed
	matches []Row // build matches of the probe row at live-1
	mi      int   // next match to emit
	ppos    int   // physical position of that probe row
	keyBuf  Row
	out     *Batch
	eof     bool
}

type buildRow struct {
	key Row
	row Row
}

// NewHashJoin builds an inner hash join. leftKeys and rightKeys must have
// equal length; output is the concatenation left ++ right.
func NewHashJoin(left, right BatchOperator, leftKeys, rightKeys []expr.Expr) *HashJoin {
	cols := append(append([]Col{}, left.Columns()...), right.Columns()...)
	return &HashJoin{
		left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys,
		cols: cols, leftWidth: len(left.Columns()),
	}
}

// Open materializes the build side. The build input is fully closed before
// the probe side opens, so at most one scan is live at any moment — scans
// of concurrent sessions serialize on per-table locks, and holding one
// table while acquiring another would risk an ABBA deadlock between
// queries visiting the tables in opposite orders (or a self-deadlock on a
// self-join).
func (j *HashJoin) Open() error {
	j.table = make(map[uint64][]buildRow, 256)
	scratch := make([][]datum.Datum, len(j.leftKeys))
	vecs := make([][]datum.Datum, len(j.leftKeys))
	key := make(Row, len(j.leftKeys))
	err := drainChild(j.left, func(b *Batch) error {
		if err := evalKeys(j.leftKeys, b, scratch, vecs); err != nil {
			return err
		}
		b.forLive(func(k, pos int) {
			if !gatherKey(vecs, pos, key) {
				return // NULL keys never join
			}
			h := hashKey(key)
			j.table[h] = append(j.table[h], buildRow{key: CloneRow(key), row: b.Row(k, make(Row, len(b.Cols)))})
		})
		return nil
	})
	if err != nil {
		return err
	}
	j.probe, j.matches, j.mi, j.eof = nil, nil, 0, false
	j.keyScr = make([][]datum.Datum, len(j.rightKeys))
	j.keyVecs = make([][]datum.Datum, len(j.rightKeys))
	j.keyBuf = make(Row, len(j.rightKeys))
	return j.right.Open()
}

// evalKeys evaluates the key expressions over b into vecs.
func evalKeys(keys []expr.Expr, b *Batch, scratch, vecs [][]datum.Datum) error {
	for i, k := range keys {
		v, err := evalVec(k, b, &scratch[i])
		if err != nil {
			return err
		}
		vecs[i] = v
	}
	return nil
}

// gatherKey copies position pos of the key vectors into key, reporting
// false when any component is NULL.
func gatherKey(vecs [][]datum.Datum, pos int, key Row) bool {
	for i := range vecs {
		v := vecs[i][pos]
		if v.Null() {
			return false
		}
		key[i] = v
	}
	return true
}

func hashKey(key Row) uint64 {
	var h uint64 = 1469598103934665603
	for _, d := range key {
		h = h*1099511628211 ^ d.Hash()
	}
	return h
}

// NextBatch emits the next batch of joined rows.
func (j *HashJoin) NextBatch() (*Batch, error) {
	if j.out == nil {
		j.out = NewBatch(len(j.cols), DefaultBatchSize)
	}
	out := j.out
	out.Reset()
	for out.N < DefaultBatchSize {
		if j.mi < len(j.matches) {
			j.emit(out, j.matches[j.mi], j.ppos)
			j.mi++
			continue
		}
		if j.probe == nil || j.live >= j.probe.Live() {
			if j.eof {
				break
			}
			if err := j.nextProbe(); err != nil {
				return nil, err
			}
			continue
		}
		k := j.live
		j.live++
		pos := k
		if j.probe.Sel != nil {
			pos = j.probe.Sel[k]
		}
		if !gatherKey(j.keyVecs, pos, j.keyBuf) {
			continue
		}
		j.matches, j.mi, j.ppos = j.matches[:0], 0, pos
		for _, b := range j.table[hashKey(j.keyBuf)] {
			if joinKeyEqual(b.key, j.keyBuf) {
				j.matches = append(j.matches, b.row)
			}
		}
	}
	if out.N == 0 {
		return nil, io.EOF
	}
	return out, nil
}

// nextProbe pulls the next probe batch and evaluates its key vectors;
// the end of the probe stream sets j.eof.
func (j *HashJoin) nextProbe() error {
	b, err := j.right.NextBatch()
	if err == io.EOF {
		j.eof, j.probe = true, nil
		return nil
	}
	if err != nil {
		return err
	}
	j.probe, j.live = b, 0
	return evalKeys(j.rightKeys, b, j.keyScr, j.keyVecs)
}

// emit appends build row ++ probe row at position pos to out.
func (j *HashJoin) emit(out *Batch, build Row, pos int) {
	for c := 0; c < j.leftWidth; c++ {
		out.Cols[c] = append(out.Cols[c], build[c])
	}
	for c := j.leftWidth; c < len(out.Cols); c++ {
		out.Cols[c] = append(out.Cols[c], j.probe.Cols[c-j.leftWidth][pos])
	}
	out.N++
}

// joinKeyEqual uses SQL equality semantics; NULLs were already filtered.
func joinKeyEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !datum.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Close closes the probe side and releases the table.
func (j *HashJoin) Close() error {
	j.table, j.matches, j.probe = nil, nil, nil
	return j.right.Close()
}

// Columns returns left ++ right.
func (j *HashJoin) Columns() []Col { return j.cols }
