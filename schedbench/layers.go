package main

// perLayer computes the traced run's per-layer metrics. Times are medians
// over the requests (or ops, jobs, opens, builds) that exercised the layer;
// "_per_op" figures are totals divided by the op count. A layer a workload
// never reaches reports 0.
func (b *bench) perLayer() map[string]metric {
	var (
		handler, overhead, queue, reqKB                  []float64
		submit, stream, jobLat, events                   []float64
		gen, phase1, phase2, self, memo, serverGen       []float64
		open, loaded, readBytes, build, numeric, prefact []float64
		nnz, peakFactor                                  []float64
		attempts, violations, validated, solved          float64
		memoHits, memoMisses, storeHits, storeMisses     float64
		appendBytes, solveCalls, solveMS, sims           float64
	)
	for _, r := range b.recs {
		sims += float64(r.sims)
		if r.job {
			submit = append(submit, r.submitMS)
			stream = append(stream, r.streamMS)
			jobLat = append(jobLat, ms(r.dur))
			events = append(events, float64(r.events))
		} else {
			for _, s := range r.reqs {
				handler = append(handler, s.handler)
				overhead = append(overhead, s.handler-s.generate-s.queue)
				queue = append(queue, s.queue)
			}
			reqKB = append(reqKB, float64(r.reqBytes)/1024/float64(len(r.reqs)))
		}
		for _, l := range r.layers {
			gen = append(gen, l.GenerateMS)
			serverGen = append(serverGen, l.ServerGenerateMS)
			phase1 = append(phase1, l.Phase1MS)
			phase2 = append(phase2, l.Phase2MS)
			self = append(self, l.SelfMS)
			memo = append(memo, l.MemoMS)
			attempts += float64(l.Attempts)
			violations += float64(l.Violations)
			validated += float64(l.Validated)
			solved += float64(l.Solved)
			memoHits += float64(l.MemoHits)
			memoMisses += float64(l.MemoMisses)
			storeHits += float64(l.StoreHits)
			storeMisses += float64(l.StoreMisses)
			appendBytes += float64(l.AppendBytes)
			solveCalls += float64(l.SolveCalls)
			solveMS += l.SolveMS
			if l.Opened {
				open = append(open, l.OpenMS)
				loaded = append(loaded, float64(l.LoadedRecords))
				readBytes = append(readBytes, float64(l.ReadBytes))
			}
			if l.GridBuilt {
				build = append(build, l.GridBuildMS)
				numeric = append(numeric, l.NumericMS)
				prefact = append(prefact, l.GridBuildMS-l.NumericMS)
				nnz = append(nnz, float64(l.FactorNNZ))
				peakFactor = append(peakFactor, float64(l.PeakFactorB)/(1<<20))
			}
		}
	}
	n := float64(len(b.recs))
	jobsRetained, shed := 0.0, 0.0
	if b.h != nil {
		if hz, err := health(b.h); err == nil {
			jobsRetained, shed = float64(hz.Jobs.Done), float64(hz.Shed)
		}
	}
	var journal float64
	if len(submit) > 0 {
		journal = float64(fileSize(b.dir+"/jobs.wal")-b.journal0) / float64(len(submit))
	}
	return map[string]metric{
		"server.handler_ms":  {median(handler), "ms"},
		"server.overhead_ms": {median(overhead), "ms"},
		"server.request_kb":  {mean(reqKB), "KiB"},

		"conc.queue_ms": {quantile(queue, 0.9), "ms"},
		"conc.shed":     {shed, "count"},

		"jobs.submit_ms":             {median(submit), "ms"},
		"jobs.stream_ms":             {median(stream), "ms"},
		"jobs.latency_p50_ms":        {median(jobLat), "ms"},
		"jobs.journal_bytes_per_job": {journal, "B"},
		"jobs.events_per_job":        {mean(events), "count"},
		"jobs.retained":              {jobsRetained, "count"},

		"core.generate_ms":        {median(gen), "ms"},
		"core.phase1_ms":          {median(phase1), "ms"},
		"core.phase2_ms":          {median(phase2), "ms"},
		"core.self_ms":            {median(self), "ms"},
		"core.attempts_per_op":    {attempts / n, "count"},
		"core.violations_per_op":  {violations / n, "count"},
		"core.batch_useful_ratio": {ratio(validated, solved), "ratio"},
		"core.memo_hits_per_op":   {memoHits / n, "count"},
		"core.memo_misses_per_op": {memoMisses / n, "count"},
		"core.memo_hit_ratio":     {ratio(memoHits, memoHits+memoMisses), "ratio"},
		"core.memo_ms":            {median(memo), "ms"},
		"core.sims_per_op":        {sims / n, "count"},

		"oraclestore.open_ms":             {median(open), "ms"},
		"oraclestore.loaded_records":      {mean(loaded), "count"},
		"oraclestore.read_bytes":          {mean(readBytes), "B"},
		"oraclestore.hits_per_op":         {storeHits / n, "count"},
		"oraclestore.hit_ratio":           {ratio(storeHits, storeHits+storeMisses), "ratio"},
		"oraclestore.append_bytes_per_op": {appendBytes / n, "B"},
		"oraclestore.misses_per_op":       {storeMisses / n, "count"},

		"thermal.grid_build_ms":      {median(build), "ms"},
		"thermal.solve_calls_per_op": {solveCalls / n, "count"},
		"thermal.rhs_per_call":       {ratio(solved, solveCalls), "count"},
		"thermal.solve_ms_per_rhs":   {ratio(solveMS, solved), "ms"},

		"linalg.numeric_ms":     {median(numeric), "ms"},
		"linalg.prefactor_ms":   {median(prefact), "ms"},
		"linalg.factor_nnz":     {mean(nnz), "count"},
		"linalg.peak_factor_mb": {mean(peakFactor), "MiB"},

		"trace.overhead_pct": {100 * (ratio(median(gen), median(serverGen)) - 1), "%"},
	}
}
