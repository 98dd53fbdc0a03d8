type 'a node = {
  key : string;
  value : 'a;
  mutable prev : 'a node option; (* toward most-recent *)
  mutable next : 'a node option; (* toward least-recent *)
}

type 'a t = {
  mutable capacity : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option; (* most recently used *)
  mutable tail : 'a node option; (* least recently used *)
}

let create ~capacity = { capacity; table = Hashtbl.create 64; head = None; tail = None }

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some nx -> nx.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.value

let evict_over t =
  let evicted = ref 0 in
  while Hashtbl.length t.table > t.capacity do
    match t.tail with
    | None -> Hashtbl.reset t.table (* unreachable: list tracks the table *)
    | Some n ->
        unlink t n;
        Hashtbl.remove t.table n.key;
        incr evicted
  done;
  !evicted

let add t key value =
  if t.capacity = 0 then 0
  else begin
    (match Hashtbl.find_opt t.table key with
    | Some old -> unlink t old; Hashtbl.remove t.table key
    | None -> ());
    let n = { key; value; prev = None; next = None } in
    push_front t n;
    Hashtbl.replace t.table key n;
    evict_over t
  end

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table key

let length t = Hashtbl.length t.table

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None

let set_capacity t k =
  t.capacity <- max 0 k;
  evict_over t
