//! The one chunked fan-out: an index map split into contiguous ranges
//! over scoped threads, used by the compile flow's per-kernel stages,
//! the design-space sweep and [`crate::verify_program`].

/// `0` → available parallelism, otherwise the value itself (min 1).
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// `f(0), …, f(n - 1)` in index order, computed by up to `jobs` scoped
/// threads — inline, with no thread scope, when one range suffices.
/// Each thread owns a contiguous index range, the calling thread the
/// first, and the ranges are joined in order, so element `i` is `f(i)`
/// whatever the thread timing. A worker's panic resumes on the caller,
/// as if `f` had run inline.
pub fn fan_out<T: Send>(jobs: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let per = n.div_ceil(jobs.max(1));
    if per >= n {
        return (0..n).map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (per..n)
            .step_by(per)
            .map(|lo| scope.spawn(move || (lo..n.min(lo + per)).map(f).collect::<Vec<T>>()))
            .collect();
        let mut out = Vec::with_capacity(n);
        out.extend((0..per).map(f));
        for worker in workers {
            match worker.join() {
                Ok(part) => out.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equals_the_serial_map() {
        for jobs in [0, 1, 2, 3, 7] {
            for n in [0, 1, 2, 5, 64] {
                let serial: Vec<usize> = (0..n).map(|i| i * i + 3).collect();
                assert_eq!(fan_out(jobs, n, |i| i * i + 3), serial, "jobs={jobs} n={n}");
            }
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        for bad in [0, 40] {
            let caught = std::panic::catch_unwind(|| {
                fan_out(4, 64, |i| {
                    assert!(i != bad, "element {i} failed");
                    i
                })
            });
            let panic = caught.expect_err("the panic must reach the caller");
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert_eq!(message, &format!("element {bad} failed"));
        }
    }
}
