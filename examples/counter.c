// The canonical lock-counter workload (the paper's Fig. 10 client),
// as a standalone MiniC file for profiling walkthroughs:
//
//   python -m repro drf examples/counter.c --threads inc,inc,inc --lock \
//       --jobs 2 --trace run.jsonl --ledger run.json
//   python -m repro inspect run.jsonl
//
// Three threads increment a shared counter under the lock object, so
// the program is race-free but its interleaving space is large enough
// (tens of thousands of worlds) that where the checker's wall-clock
// goes is worth asking. See EXPERIMENTS.md, "Profiling a parallel
// run".
extern void lock();
extern void unlock();
int x = 0;
void inc() {
  int tmp;
  lock();
  tmp = x;
  x ++;
  unlock();
  print(tmp);
}
