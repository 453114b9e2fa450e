(* Order statistics over timing samples, and the benchmark's result line. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: no samples"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

type tail = { value : float; percentile : int; samples : int }

(* The highest percentile that still has at least ten samples beyond it: in
   ascending order, the sample with exactly ten samples after it, which is
   the (n-10)/n quantile (p95 at 216 samples). *)
let block_tail a =
  let a = sorted a in
  let n = Array.length a in
  (a.(n - 11), 100 * (n - 10) / n)

let block = 216

(* The tail of a run's samples.  Below eleven samples no percentile
   qualifies and the median stands in, labelled p50.  Up to [block]
   samples, the rule above over all of them.  Beyond, the rule per block of
   [block] consecutive samples (a trailing partial block is dropped) and
   the median over blocks, so that a run's few rarest stalls do not decide
   the figure on their own. *)
let tail xs =
  let n = List.length xs in
  if n = 0 then invalid_arg "Stats.tail: no samples"
  else if n < 11 then { value = median xs; percentile = 50; samples = n }
  else if n <= block then
    let value, percentile = block_tail xs in
    { value; percentile; samples = n }
  else
    let a = Array.of_list xs in
    let blocks = List.init (n / block) (fun b -> Array.to_list (Array.sub a (b * block) block)) in
    {
      value = median (List.map (fun b -> fst (block_tail b)) blocks);
      percentile = snd (block_tail (List.hd blocks));
      samples = n;
    }

(* {2 The result line} *)

let is_alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

type metric = { name : string; value : float; unit_ : string }

(* Integral values print exactly, all others with every significant digit
   (17 suffice to round-trip a double). *)
let json_number v =
  if not (Float.is_finite v) then invalid_arg "Stats.json_number: not finite"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun m ->
      if not (valid_name m.name) then invalid_arg ("bad metric name " ^ m.name);
      if not (valid_unit m.unit_) then invalid_arg ("bad unit " ^ m.unit_);
      if Hashtbl.mem seen m.name then invalid_arg ("duplicate metric " ^ m.name);
      Hashtbl.add seen m.name ())
    metrics;
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name
              (json_number m.value) m.unit_)
          metrics))
