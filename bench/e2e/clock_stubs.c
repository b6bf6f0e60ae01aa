/* Monotonic clock with nanosecond resolution (Unix.gettimeofday has
   microsecond resolution, too coarse for request latencies of a few
   tens of microseconds). */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double redobench_now_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value redobench_now(value unit)
{
  return caml_copy_double(redobench_now_unboxed(unit));
}
