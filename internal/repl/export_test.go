package repl

// SnapshotLSNs lists the archive's snapshots in LSN order: the To of
// every snapshotEvery-th sealed segment.
func (a *Archiver) SnapshotLSNs() []int64 {
	var lsns []int64
	for i, s := range a.segs {
		if (i+1)%snapshotEvery == 0 {
			lsns = append(lsns, s.To)
		}
	}
	return lsns
}
