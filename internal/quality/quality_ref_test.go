package quality

// refObserve is the reference for Scoreboard.ObserveChunk: Observe as it
// was written before the chunk form, one lock and one counter increment
// per window. The differential test feeds it and ObserveChunk the same
// stream and requires every count and calibration-sum bit to match.
func refObserve(s *Scoreboard, actual, predicted int, score float64) {
	if s == nil || actual < 0 || actual >= s.cfg.NumClasses ||
		predicted < 0 || predicted >= s.cfg.NumClasses {
		return
	}
	pos := actual == predicted
	if s.cfg.NumClasses == 2 {
		pos = actual == 1
	}
	bin := s.scoreBin(score)
	s.mu.Lock()
	e := s.epochs[s.cur]
	e.conf.Observe(actual, predicted)
	e.scoreHist[actual][bin]++
	e.calN[bin]++
	e.calScore[bin] += score
	if pos {
		e.calPos[bin]++
	}
	e.n++
	s.observed++
	s.mu.Unlock()
	s.mObserved.Inc()
}
