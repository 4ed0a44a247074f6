//! `cfdc cache stats|clear --cache-dir PATH`: inspect or empty the
//! on-disk compile cache without running a compile.

use cfd_core::CompileCache;

use crate::flags::{checked_or_exit, parse_options, CACHE_DIR};
use crate::{fail, CliError};

pub(crate) fn cmd_cache(args: &[String]) {
    let sub = match args.first().map(String::as_str) {
        Some(s @ ("stats" | "clear")) => s,
        other => fail(CliError::InvalidValue {
            flag: "cache".to_string(),
            value: other.unwrap_or_default().to_string(),
            expected: "stats | clear",
        }),
    };
    let p = checked_or_exit("cache", parse_options(&args[1..]));
    let Some(dir) = &p.cache_dir else {
        fail(CliError::MissingOption(CACHE_DIR.synopsis()))
    };
    let path = std::path::Path::new(dir);
    let cache_err = |e: std::io::Error| -> ! {
        fail(CliError::CacheDir {
            path: dir.clone(),
            error: e.to_string(),
        })
    };
    if sub == "stats" {
        let (entries, bytes) = CompileCache::disk_stats(path).unwrap_or_else(|e| cache_err(e));
        outln!("cache at {dir}: {entries} entries, {bytes} bytes");
    } else {
        let removed = CompileCache::clear_disk(path).unwrap_or_else(|e| cache_err(e));
        outln!("cache at {dir}: removed {removed} entries");
    }
}
