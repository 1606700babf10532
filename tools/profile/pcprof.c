/* Sampling profiler, loaded with LD_PRELOAD: every 1 ms of CPU time
   (ITIMER_PROF) the SIGPROF handler records the interrupted PC and the
   glibc backtrace() frames above it; at exit the samples and the
   process's memory map go to $PCPROF_OUT (default pcprof.out), for
   folded.exe to symbolise.  Unlike an OCaml signal handler, which runs
   only at the next allocation or poll point, this one sees the
   instruction that was running.  x86-64 Linux only. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define DEPTH 64
#define MAX_SAMPLES 65536

static void *frames[MAX_SAMPLES][DEPTH];
static int depth[MAX_SAMPLES];
static void *pc[MAX_SAMPLES];
static volatile int nsamples;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
  (void)sig; (void)info;
  int i = nsamples;
  if (i >= MAX_SAMPLES) return;
  pc[i] = (void *)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
  depth[i] = backtrace(frames[i], DEPTH);
  nsamples = i + 1;
}

__attribute__((constructor)) static void pcprof_start(void) {
  void *warm[4];
  backtrace(warm, 4); /* loads the unwinder outside the handler */
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void pcprof_stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char *path = getenv("PCPROF_OUT");
  FILE *out = fopen(path ? path : "pcprof.out", "w");
  if (!out) return;
  for (int i = 0; i < nsamples; i++) {
    fprintf(out, "S %p", pc[i]);
    for (int j = 0; j < depth[i]; j++) fprintf(out, " %p", frames[i][j]);
    fputc('\n', out);
  }
  FILE *maps = fopen("/proc/self/maps", "r");
  char line[4096];
  while (maps && fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
  if (maps) fclose(maps);
  fclose(out);
}
