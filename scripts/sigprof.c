/* A SIGPROF sampler for hosts without `perf`, loaded with LD_PRELOAD by
 * scripts/profile.sh. Every tick of ITIMER_PROF (process CPU time) it
 * records the interrupted RIP and walks the RBP chain, so the profiled
 * binary must be built with -C force-frame-pointers=yes. Only frames
 * inside the main thread's stack are followed: the benchmark child is
 * one thread. At exit it writes one line of hex PCs per sample (leaf
 * first), then `--maps--` and /proc/self/maps, to $SIGPROF_OUT.
 *
 * x86-64 Linux only; anything else compiles to an empty object.
 */
#define _GNU_SOURCE
#if defined(__x86_64__) && defined(__linux__)
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_DEPTH 48
#define MAX_WORDS (1u << 22) /* 32 MiB of PCs: hours at 250 Hz */

static uintptr_t *words;     /* samples, each a run of PCs closed by a 0 */
static volatile size_t used;
static uintptr_t stack_lo, stack_hi;

static void on_tick(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    const ucontext_t *uc = ctx;
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    size_t at = used;
    if (at + MAX_DEPTH + 2 > MAX_WORDS)
        return;
    words[at++] = pc;
    for (int depth = 0; depth < MAX_DEPTH; depth++) {
        if (fp < stack_lo || fp + 16 > stack_hi || (fp & 7))
            break;
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (frame[1] == 0)
            break;
        words[at++] = frame[1];
        if (frame[0] <= fp) /* the chain only ever climbs */
            break;
        fp = frame[0];
    }
    words[at++] = 0;
    used = at;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    if (!out)
        return;
    for (size_t i = 0; i < used; i++) {
        if (words[i])
            fprintf(out, "%lx ", (unsigned long)words[i]);
        else
            fputc('\n', out);
    }
    fputs("--maps--\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        int c;
        while ((c = fgetc(maps)) != EOF)
            fputc(c, out);
        fclose(maps);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    pthread_attr_t attr;
    void *base;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) != 0 ||
        pthread_attr_getstack(&attr, &base, &size) != 0)
        return;
    pthread_attr_destroy(&attr);
    stack_lo = (uintptr_t)base;
    stack_hi = stack_lo + size;
    words = mmap(NULL, MAX_WORDS * sizeof *words, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (words == MAP_FAILED)
        return;
    atexit(dump);

    struct sigaction sa;
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    /* 250 Hz: the kernel ticks every 4 ms here, so faster gains nothing. */
    struct itimerval every = {{0, 4000}, {0, 4000}};
    setitimer(ITIMER_PROF, &every, NULL);
}
#endif
