// SIGPROF program-counter sampler, loaded with LD_PRELOAD (CONTRIBUTING.md,
// "Profiling host time"). Every PC_SAMPLE_US microseconds of process CPU
// time (default 1000) the interrupted PC is stored; at exit the PCs and
// /proc/self/maps are written to <PC_SAMPLE_OUT>.<pid>.pcs and .maps
// (PC_SAMPLE_OUT defaults to pc_sample).
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long pcs[MAX_SAMPLES];
static int n_pcs;

static void on_prof(int sig, siginfo_t* si, void* uc_void) {
  (void)sig, (void)si;
  const ucontext_t* uc = uc_void;
#if defined(__x86_64__)
  const unsigned long pc = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const unsigned long pc = uc->uc_mcontext.pc;
#else
#error "pc_sample: unsupported architecture"
#endif
  const int i = __atomic_fetch_add(&n_pcs, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES) pcs[i] = pc;
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  const char* us = getenv("PC_SAMPLE_US");
  const long period = us ? atol(us) : 1000;
  struct itimerval it = {{0, period}, {0, period}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char* base = getenv("PC_SAMPLE_OUT");
  char path[4096];
  snprintf(path, sizeof path, "%s.%d.pcs", base ? base : "pc_sample",
           (int)getpid());
  FILE* f = fopen(path, "w");
  int n = __atomic_load_n(&n_pcs, __ATOMIC_RELAXED);
  if (n > MAX_SAMPLES) n = MAX_SAMPLES;
  for (int i = 0; f && i < n; ++i) fprintf(f, "%lx\n", pcs[i]);
  if (f) fclose(f);
  snprintf(path, sizeof path, "%s.%d.maps", base ? base : "pc_sample",
           (int)getpid());
  FILE* in = fopen("/proc/self/maps", "r");
  FILE* out = fopen(path, "w");
  for (int c; in && out && (c = fgetc(in)) != EOF;) fputc(c, out);
  if (in) fclose(in);
  if (out) fclose(out);
}
