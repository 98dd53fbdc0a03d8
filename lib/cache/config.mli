(** Runtime configuration of the result cache.

    The cache is configured from the environment on first use and can be
    overridden programmatically (the [bfly_tool --no-cache] flag, tests):

    - [BFLY_CACHE=off] disables the cache entirely — every lookup misses
      without touching memory or disk, and nothing is stored.
    - [BFLY_CACHE_DIR=path] relocates the on-disk store (default
      [_bfly_cache/], relative to the working directory).
    - [BFLY_CACHE_LRU=k] caps the in-memory tier at [k] entries
      (default 512; [0] keeps only the disk tier).

    All accessors are safe to call from any domain, and reads take no
    lock (one atomic load: the store reads the configuration on every
    lookup); configuration writes are meant for process setup (CLI flag
    parsing, test fixtures), not for concurrent mutation mid-search. *)

(** Whether the cache is active. [false] when [BFLY_CACHE=off] (case
    insensitive; [0], [no] and [false] are also honoured) or after
    {!set_enabled}[ false]. *)
val enabled : unit -> bool

(** Force the cache on or off for the rest of the process (overrides the
    environment until {!reload}). *)
val set_enabled : bool -> unit

(** The on-disk store directory: [BFLY_CACHE_DIR], else [_bfly_cache]. The
    directory is created lazily on the first store. *)
val dir : unit -> string

(** Override the store directory (tests point this at a temp dir). *)
val set_dir : string -> unit

(** Capacity of the in-memory LRU tier, in entries. *)
val lru_capacity : unit -> int

(** Override the LRU capacity. Takes effect on the next store operation;
    shrinking evicts immediately via {!Store}. *)
val set_lru_capacity : int -> unit

(** Drop every programmatic override and re-read the environment. Tests
    call this after [Unix.putenv] to exercise the env-driven paths. *)
val reload : unit -> unit
