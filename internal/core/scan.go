package core

import "sync"

// scanFirst evaluates n independent checks and returns what a sequential
// in-order scan with early exit would return: the outcome (finding or
// error) of the lowest index whose check is not clean, or (nil, nil) when
// all are clean.
//
// With workers <= 1 it is that sequential scan. With workers > 1 the
// checks run in consecutive waves of workers indexes, one goroutine per
// index, and the scan stops after the first wave that holds an outcome,
// returning that wave's lowest. Every index below it was verified clean,
// so the winning finding (and therefore the transcript) is byte-identical
// to the sequential scan's. Which checks ran is a function of the input
// alone, not of scheduling: every index of the waves up to that one, so
// the cache counters repeat from run to run.
func scanFirst(n, workers int, check func(i int) (*Finding, error)) (*Finding, error) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f, err := check(i)
			if f != nil || err != nil {
				return f, err
			}
		}
		return nil, nil
	}

	type outcome struct {
		f   *Finding
		err error
	}
	wave := make([]outcome, workers)
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += workers {
		hi := min(lo+workers, n)
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f, err := check(i)
				wave[i-lo] = outcome{f: f, err: err}
			}()
		}
		wg.Wait()
		for _, o := range wave[:hi-lo] {
			if o.f != nil || o.err != nil {
				return o.f, o.err
			}
		}
	}
	return nil, nil
}
