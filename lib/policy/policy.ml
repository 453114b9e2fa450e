type error =
  | Budget_exhausted of string
  | Worker_killed of string
  | Encode_error of string
  | Cert_failed of string

let error_message = function
  | Budget_exhausted s -> "budget exhausted: " ^ s
  | Worker_killed s -> "worker killed: " ^ s
  | Encode_error s -> "encode error: " ^ s
  | Cert_failed s -> "certification failed: " ^ s

let pp_error ppf e = Format.pp_print_string ppf (error_message e)

type budgets = {
  wall_s : float option;
  conflicts : int option;
  learnt_mb : float option;
  max_depth : int option;
}

let unlimited = { wall_s = None; conflicts = None; learnt_mb = None; max_depth = None }

type event = {
  ev_stage : string;
  ev_attempt : int;
  ev_error : error;
  ev_elapsed_s : float;
}

let pp_event ppf ev =
  Format.fprintf ppf "%s (attempt %d, %.2fs): %a" ev.ev_stage ev.ev_attempt
    ev.ev_elapsed_s pp_error ev.ev_error
