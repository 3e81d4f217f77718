(** Reproduction of every table and figure in the paper's evaluation
    (§4–§5). Each function runs the experiments it needs (memoized) and
    renders the same rows/series the paper reports. *)

type artifact = ?settings:Settings.t -> unit -> string
(** Render one artifact under the run's settings (default
    {!Settings.default}), applied to every config and every set of pass
    options it builds. *)

val table1 : artifact
(** Table 1: the base simulated configuration. *)

val table2 : artifact
(** Table 2: workload input sizes and processor counts (our scaled
    versions, with the paper's originals alongside). *)

val latbench : artifact
(** §5.1: Latbench average read-miss stall time, base vs clustered, on the
    base simulated system and the Exemplar-like system, with the paper's
    numbers for comparison. *)

val fig3a : artifact
(** Figure 3(a): multiprocessor execution-time breakdown, base vs
    clustered, normalized to base = 100. *)

val fig3b : artifact
(** Figure 3(b): uniprocessor execution-time breakdown. *)

val table3 : artifact
(** Table 3: percent execution-time reduction on the Exemplar-like
    configuration (multiprocessor and uniprocessor). *)

val fig4a : artifact
(** Figure 4(a): read-MSHR occupancy curves for multiprocessor LU and
    Ocean — fraction of time at least N MSHRs hold read misses. *)

val fig4b : artifact
(** Figure 4(b): total (read + write) MSHR occupancy curves. *)

val ghz : artifact
(** §5.2: the 1 GHz sensitivity experiment — same memory system in ns,
    double the clock. *)

val prefetch : artifact
(** Extension (paper §6 / ref [8]): software prefetching alone, clustering
    alone, and both, with late-prefetch and contention statistics. *)

val ablation : artifact
(** Extension: per-stage ablation of the driver (unroll-and-jam, window
    resolution, scalar replacement, scheduling). *)

val mshr_sweep : artifact
(** Extension: clustering speedup and chosen unroll degree as the MSHR
    count (lp) varies. *)

val paper_ids : string list
(** The nine artifacts of the paper's evaluation. *)

val extension_ids : string list

val all_ids : string list
(** [paper_ids @ extension_ids]. *)

val by_id : string -> artifact option

val run_safe :
  ?settings:Settings.t -> string -> (string, Memclust_util.Error.t) result
(** Render one artifact with every failure — watchdog deadlock, pipeline
    error, worker crash — caught into a structured error, so a batch of
    artifacts degrades per-artifact instead of aborting wholesale.
    Unknown ids yield [Config_invalid]. *)
