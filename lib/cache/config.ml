type t = { enabled : bool; dir : string; lru_capacity : int }

let default_dir = "_bfly_cache"
let default_lru = 512

let off_values = [ "off"; "0"; "no"; "false" ]

let from_env () =
  let enabled =
    match Sys.getenv_opt "BFLY_CACHE" with
    | Some v when List.mem (String.lowercase_ascii (String.trim v)) off_values
      ->
        false
    | _ -> true
  in
  let dir =
    match Sys.getenv_opt "BFLY_CACHE_DIR" with
    | Some d when String.trim d <> "" -> d
    | _ -> default_dir
  in
  let lru_capacity =
    match Sys.getenv_opt "BFLY_CACHE_LRU" with
    | Some v -> ( match int_of_string_opt (String.trim v) with
        | Some k when k >= 0 -> k
        | _ -> default_lru)
    | None -> default_lru
  in
  { enabled; dir; lru_capacity }

(* The configuration is one immutable record behind an atomic cell, so a
   read — one per cache lookup, and more — is a single [Atomic.get] with
   no lock. Writers (set-up code and tests) serialize on [mutex] so that
   two concurrent updates cannot lose each other's field. The first read
   loads the environment; racing first reads load equal records. *)
let state : t option Atomic.t = Atomic.make None
let mutex = Mutex.create ()

let current () =
  match Atomic.get state with
  | Some s -> s
  | None ->
      let s = from_env () in
      if Atomic.compare_and_set state None (Some s) then s
      else Option.get (Atomic.get state)

let update f =
  Mutex.protect mutex (fun () -> Atomic.set state (Some (f (current ()))))

let enabled () = (current ()).enabled
let set_enabled b = update (fun s -> { s with enabled = b })
let dir () = (current ()).dir
let set_dir d = update (fun s -> { s with dir = d })
let lru_capacity () = (current ()).lru_capacity
let set_lru_capacity k = update (fun s -> { s with lru_capacity = max 0 k })

let reload () = Mutex.protect mutex (fun () -> Atomic.set state (Some (from_env ())))
