int main() {
  int *a;
  int i;
  int s;
  a = (int*)malloc(8 * sizeof(int));
  for (i = 0; i < 8; i++) {
    a[i] = i * i;
  }
  s = 0;
  for (i = 0; i < 8; i++) {
    s = s + a[i];
  }
  print_int(s);
  return 0;
}
