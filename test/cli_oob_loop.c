int main() {
  int *p;
  int i;
  int sum;
  p = (int*)malloc(24);
  for (i = 0; i < 6; i++) { p[i] = i; }
  sum = 0;
  for (i = 0; i < 9; i++) { sum = sum + p[i]; }
  print_int(sum);
  return 0;
}
