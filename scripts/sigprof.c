/* A SIGPROF sampler for hosts without `perf`, loaded with LD_PRELOAD by
 * scripts/profile.sh. Every tick of ITIMER_PROF (process CPU time) it
 * records the interrupted RIP and walks the RBP chain, so the profiled
 * binary must be built with -C force-frame-pointers=yes. The tick lands
 * on whichever thread was running, so every thread's samples count:
 * each thread learns its own stack bounds as it starts (the main thread
 * in the constructor, the others through the pthread_create wrapper
 * below — pthread_getattr_np is not async-signal-safe, so the handler
 * only reads what was learned), and the walk follows frames inside the
 * interrupted thread's own stack. Handlers on two threads can run at
 * once; each reserves its sample's words with one atomic fetch-add.
 *
 * At exit it writes one line per sample — `@<thread>` (0 is the main
 * thread, then in creation order) and hex PCs, leaf first — then
 * `--maps--` and /proc/self/maps, to $SIGPROF_OUT.
 *
 * x86-64 Linux only; anything else compiles to an empty object.
 */
#define _GNU_SOURCE
#if defined(__x86_64__) && defined(__linux__)
#include <dlfcn.h>
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

static uintptr_t *words; /* samples: thread + 1, PCs, then a 0 */
static size_t used;      /* words reserved; may pass MAX_WORDS */
static unsigned threads; /* threads started so far, the main one aside */

/* Initial-exec: a preloaded object's TLS is static, and reading it from
 * a signal handler must not reach the lazy allocator of __tls_get_addr. */
#define TLS __thread __attribute__((tls_model("initial-exec")))
static TLS uintptr_t stack_lo, stack_hi;
static TLS unsigned thread_no;

static void learn_stack(void) {
    pthread_attr_t attr;
    void *base;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) != 0)
        return;
    if (pthread_attr_getstack(&attr, &base, &size) == 0) {
        stack_lo = (uintptr_t)base;
        stack_hi = stack_lo + size;
    }
    pthread_attr_destroy(&attr);
}

struct start {
    void *(*run)(void *);
    void *arg;
    unsigned no;
};

static void *trampoline(void *p) {
    struct start start = *(struct start *)p;
    free(p);
    thread_no = start.no;
    learn_stack();
    return start.run(start.arg);
}

int pthread_create(pthread_t *thread, const pthread_attr_t *attr,
                   void *(*run)(void *), void *arg) {
    static int (*real)(pthread_t *, const pthread_attr_t *,
                       void *(*)(void *), void *);
    if (!real)
        real = dlsym(RTLD_NEXT, "pthread_create");
    struct start *start = malloc(sizeof *start);
    if (!start) /* unsampled beyond its leaf, but still started */
        return real(thread, attr, run, arg);
    start->run = run;
    start->arg = arg;
    start->no = __atomic_add_fetch(&threads, 1, __ATOMIC_RELAXED);
    int rc = real(thread, attr, trampoline, start);
    if (rc != 0)
        free(start);
    return rc;
}

static void on_tick(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    const ucontext_t *uc = ctx;
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sample[MAX_DEPTH + 3];
    size_t n = 0;
    sample[n++] = thread_no + 1;
    sample[n++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    for (int depth = 0; depth < MAX_DEPTH; depth++) {
        if (fp < stack_lo || fp + 16 > stack_hi || (fp & 7))
            break;
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (frame[1] == 0)
            break;
        sample[n++] = frame[1];
        if (frame[0] <= fp) /* the chain only ever climbs */
            break;
        fp = frame[0];
    }
    sample[n++] = 0;
    size_t at = __atomic_fetch_add(&used, n, __ATOMIC_RELAXED);
    if (at + n > MAX_WORDS)
        return;
    for (size_t i = 0; i < n; i++)
        words[at + i] = sample[i];
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    if (!out)
        return;
    size_t end = __atomic_load_n(&used, __ATOMIC_RELAXED);
    if (end > MAX_WORDS)
        end = MAX_WORDS;
    /* A reservation that ran past the end was never written: its zeros
     * read as empty samples and are skipped. */
    int fresh = 1;
    for (size_t i = 0; i < end; i++) {
        if (!words[i]) {
            if (!fresh)
                fputc('\n', out);
            fresh = 1;
        } else if (fresh) {
            fprintf(out, "@%lu ", (unsigned long)words[i] - 1);
            fresh = 0;
        } else {
            fprintf(out, "%lx ", (unsigned long)words[i]);
        }
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
    learn_stack();
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
