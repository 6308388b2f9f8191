package exec

// RunRowEngine lets the external tests of this package (which may import
// engine and the workloads) call the row-engine oracle.
var RunRowEngine = runRowEngine
