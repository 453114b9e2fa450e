(* Self-time accounting over a span forest.

   A span's self time is its duration minus the part of that interval its
   children cover.  Summed over a well-nested forest, self times add up to
   the roots' durations exactly, so a ledger of per-layer self times has
   no gaps and counts no interval twice. *)

type span = {
  name : string;
  layer : string option;  (** [None]: the time stays unattributed *)
  start : float;
  stop : float;
  parent : int option;  (** index of the enclosing span, which comes first *)
}

let duration s = s.stop -. s.start

(* Every span has a non-negative duration and lies within its parent. *)
let check_nesting spans =
  let bad = ref None in
  Array.iteri
    (fun i s ->
      if !bad = None then
        if s.stop < s.start then
          bad := Some (Printf.sprintf "span %d (%s) ends before it starts" i s.name)
        else
          match s.parent with
          | None -> ()
          | Some p when p < 0 || p >= i ->
            bad := Some (Printf.sprintf "span %d (%s) has parent %d out of order" i s.name p)
          | Some p ->
            let q = spans.(p) in
            if s.start < q.start || s.stop > q.stop then
              bad :=
                Some
                  (Printf.sprintf "span %d (%s) [%f, %f] lies outside its parent %s [%f, %f]"
                     i s.name s.start s.stop q.name q.start q.stop))
    spans;
  match !bad with None -> Ok () | Some why -> Error why

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_times spans =
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun s ->
      Option.iter (fun p -> children.(p) <- (s.start, s.stop) :: children.(p)) s.parent)
    spans;
  Array.mapi
    (fun i s -> duration s -. covered ~lo:s.start ~hi:s.stop children.(i))
    spans

(* Self time summed per layer, sorted by layer name. *)
let by_layer spans =
  let self = self_times spans in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      match s.layer with
      | Some l ->
        Hashtbl.replace tbl l
          (self.(i) +. Option.value (Hashtbl.find_opt tbl l) ~default:0.0)
      | None -> ())
    spans;
  Hashtbl.fold (fun l t acc -> (l, t) :: acc) tbl [] |> List.sort compare

let layer_total layers name = Option.value (List.assoc_opt name layers) ~default:0.0

(* Wall time no layer claims: the traced wall minus every layer's self
   time.  Layer self times plus this sum to [wall] by construction; the
   forest check below is what makes the parts meaningful. *)
let unattributed ~wall spans =
  wall -. List.fold_left (fun acc (_, t) -> acc +. t) 0.0 (by_layer spans)

(* Self times over the whole forest minus the roots' durations: zero (up to
   rounding) exactly when no interval is counted twice. *)
let double_counted spans =
  let self = Array.fold_left ( +. ) 0.0 (self_times spans) in
  let roots =
    Array.fold_left
      (fun acc s -> if s.parent = None then acc +. duration s else acc)
      0.0 spans
  in
  self -. roots
